// Command uascan is the zgrab2-style OPC UA scanner for real targets:
// it connects to one or more host:port targets over TCP, retrieves the
// advertised endpoints, attempts a secure channel with a self-signed
// certificate, optionally creates an anonymous session and traverses
// the address space, and prints one JSON result per target.
//
// Usage:
//
//	uascan [-timeout 10s] [-walk] [-delay 500ms] host:port [host:port...]
package main

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/scanner"
	"repro/internal/uacert"
	"repro/internal/uaclient"
)

func main() {
	log.SetFlags(0)
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		log.Fatal(err)
	}
}

// errUsage reports command-line misuse; the flag set has already
// printed the usage.
var errUsage = errors.New("uascan: bad usage")

// run parses args, grabs every target and writes one JSON result per
// target to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("uascan", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: uascan [flags] host:port [host:port...]")
		fs.PrintDefaults()
	}
	timeout := fs.Duration("timeout", 10*time.Second, "per-connection timeout")
	walk := fs.Bool("walk", true, "traverse the address space when anonymous access works")
	paper := uaclient.DefaultWalkOptions()
	delay := fs.Duration("delay", paper.Delay, "inter-request delay during traversal (politeness)")
	maxBytes := fs.Int64("maxbytes", paper.MaxBytes, "per-host traffic cap")
	maxTime := fs.Duration("maxtime", paper.MaxDuration, "per-host traversal time cap")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return errUsage
	}

	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		return err
	}
	cert, err := uacert.Generate(key, uacert.Options{
		CommonName:     "uascan research scanner",
		Organization:   "repro",
		ApplicationURI: "urn:repro:uascan",
		SignatureHash:  uacert.HashSHA256,
	})
	if err != nil {
		return err
	}

	walkOpts := paper
	walkOpts.Delay, walkOpts.MaxDuration, walkOpts.MaxBytes = *delay, *maxTime, *maxBytes
	if !*walk {
		walkOpts.MaxNodes = 1
	}
	sc := &scanner.Scanner{
		Dialer:         netDialer{},
		Key:            key,
		CertDER:        cert.Raw,
		Timeout:        *timeout,
		Walk:           walkOpts,
		ApplicationURI: "urn:repro:uascan",
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	for _, target := range fs.Args() {
		res := sc.Grab(context.Background(), scanner.Target{
			Address: target,
			Via:     scanner.ViaPortScan,
		}, nil)
		if err := enc.Encode(res); err != nil {
			return fmt.Errorf("writing %s: %w", target, err)
		}
	}
	return nil
}

// netDialer adapts net.Dialer to the scanner's Dialer interface.
type netDialer struct{}

func (netDialer) DialContext(ctx context.Context, network, address string) (conn net.Conn, err error) {
	var d net.Dialer
	return d.DialContext(ctx, network, address)
}
