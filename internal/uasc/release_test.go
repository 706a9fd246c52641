package uasc

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/memconn"
	"repro/internal/uamsg"
)

// TestReceiveBufferReleasedOnlyByItsReader closes a transport from
// another goroutine while its reader is inside a read or checking a
// chunk it read, thousands of times on several goroutines, and checks
// that every chunk a transport reads holds its own connection's bytes
// until the reader is done with it: a receive buffer passes to a later
// transport only when its reading goroutine calls Release. Run it under
// -race -count=10; a Release inside Close fails it.
func TestReceiveBufferReleasedOnlyByItsReader(t *testing.T) {
	var tags atomic.Uint32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := closeWhileReading(tags.Add(1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// closeWhileReading sends chunks filled with tag's bytes, of growing
// sizes, to a reader that checks each one twice, yielding in between as
// a decoder would, and closes the reader's transport from this
// goroutine after the first few.
func closeWhileReading(tag uint32) error {
	client, server := memconn.Pipe()
	defer client.Close()
	var pattern [4]byte
	binary.LittleEndian.PutUint32(pattern[:], tag)
	own := func(body []byte) bool {
		for i, b := range body {
			if b != pattern[i%4] {
				return false
			}
		}
		return true
	}
	accepted := make(chan *Transport, 1)
	chunks := make(chan struct{}, 64)
	result := make(chan error, 1)
	go func() {
		tr, err := ServerHello(server, DefaultLimits())
		accepted <- tr
		if err != nil {
			result <- err
			return
		}
		defer tr.Release() // the reading goroutine, after its last read
		for {
			c, err := tr.readChunk()
			if err != nil {
				result <- nil
				return
			}
			ok := own(c.body)
			runtime.Gosched()
			if !ok || !own(c.body) {
				result <- errors.New("a transport read a chunk another connection wrote")
				return
			}
			chunks <- struct{}{}
		}
	}()
	if _, err := ClientHello(client, "opc.tcp://test", DefaultLimits()); err != nil {
		return err
	}
	tr := <-accepted
	if tr == nil {
		return <-result
	}
	body := make([]byte, 8<<10)
	for i := range body {
		body[i] = pattern[i%4]
	}
	for k := 1; k <= 8; k++ {
		if err := writeRaw(client, uamsg.MsgTypeMessage, uamsg.ChunkFinal, body[:k*1000]); err != nil {
			break
		}
		if k == 2+int(tag%5) {
			<-chunks
			tr.Close() // not the reading goroutine
		}
	}
	return <-result
}
