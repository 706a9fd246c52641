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
	"flag"
	"fmt"
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
	timeout := flag.Duration("timeout", 10*time.Second, "per-connection timeout")
	walk := flag.Bool("walk", true, "traverse the address space when anonymous access works")
	paper := uaclient.DefaultWalkOptions()
	delay := flag.Duration("delay", paper.Delay, "inter-request delay during traversal (politeness)")
	maxBytes := flag.Int64("maxbytes", paper.MaxBytes, "per-host traffic cap")
	maxTime := flag.Duration("maxtime", paper.MaxDuration, "per-host traversal time cap")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: uascan [flags] host:port [host:port...]")
		os.Exit(2)
	}

	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		log.Fatal(err)
	}
	cert, err := uacert.Generate(key, uacert.Options{
		CommonName:     "uascan research scanner",
		Organization:   "repro",
		ApplicationURI: "urn:repro:uascan",
		SignatureHash:  uacert.HashSHA256,
	})
	if err != nil {
		log.Fatal(err)
	}

	walkOpts := paper
	walkOpts.Delay, walkOpts.MaxDuration, walkOpts.MaxBytes = *delay, *maxTime, *maxBytes
	if !*walk {
		walkOpts.MaxNodes = 1
	}
	sc := &scanner.Scanner{
		Dialer:         nil, // set below
		Key:            key,
		CertDER:        cert.Raw,
		Timeout:        *timeout,
		Walk:           walkOpts,
		ApplicationURI: "urn:repro:uascan",
	}
	sc.Dialer = &netDialer{}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for _, target := range flag.Args() {
		res := sc.Grab(context.Background(), scanner.Target{
			Address: target,
			Via:     scanner.ViaPortScan,
		})
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
	}
}

// netDialer adapts net.Dialer to the scanner's Dialer interface.
type netDialer struct{}

func (netDialer) DialContext(ctx context.Context, network, address string) (conn net.Conn, err error) {
	var d net.Dialer
	return d.DialContext(ctx, network, address)
}
