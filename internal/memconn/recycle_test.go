package memconn

import (
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRecycledBufferNeverShared closes one end of a pipe while the
// peer's Read or Write is in flight, thousands of times on several
// goroutines, and checks that every byte a connection reads is its own:
// a direction buffer passes to a later pipe only once its reading end
// has closed, under the group mutex. Run it under -race -count=10; a
// buffer handed on by its writing end's Close, while the reader may
// still drain it, fails it.
func TestRecycledBufferNeverShared(t *testing.T) {
	var tags atomic.Uint32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				if err := exchange(tags.Add(1), (w+i)%3); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// exchange writes a stream of tag's bytes through a new pipe and reads
// it back, ending it one of three ways: 0, the writer closes when done
// and the reader drains; 1, the reader closes while the writer is held
// at the high-water mark; 2, the writer closes while the reader waits
// for more. It reports a byte that is not tag's.
func exchange(tag uint32, how int) error {
	a, b := Pipe()
	var pattern [4]byte
	binary.LittleEndian.PutUint32(pattern[:], tag)
	size := 1 + int(tag%7)*(highWater/3) // some writes stop short of the mark, some are held at it
	writeErr := make(chan error, 1)
	go func() {
		chunk := make([]byte, 4096)
		for i := range chunk {
			chunk[i] = pattern[i%4]
		}
		written := 0
		for written < size {
			k := min(len(chunk), size-written)
			// Writes start at multiples of 4096, so chunk[:k] is the
			// stream's pattern at its offset.
			n, err := a.Write(chunk[:k])
			written += n
			if err != nil {
				writeErr <- err
				return
			}
			runtime.Gosched()
		}
		if how != 1 {
			a.Close() // ways 0 and 2: the writing end closes
		}
		writeErr <- nil
	}()
	buf := make([]byte, 1500)
	read := 0
	for {
		if how == 1 && read >= size/2 {
			b.Close() // the reading end closes while the writer may be blocked
			break
		}
		n, err := b.Read(buf)
		for i := 0; i < n; i++ {
			if buf[i] != pattern[(read+i)%4] {
				b.Close()
				a.Close()
				<-writeErr
				return errors.New("a connection read a byte another connection wrote")
			}
		}
		read += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	err := <-writeErr
	a.Close()
	b.Close()
	if how != 1 && (err != nil || read != size) {
		return errors.New("a drained connection lost bytes")
	}
	return nil
}
