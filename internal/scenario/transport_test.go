package scenario

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/schema"
)

// httpGoroutines counts the client connection readers and the server
// connection handlers of net/http currently alive.
func httpGoroutines() (client, server int) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			stacks := string(buf[:n])
			return strings.Count(stacks, "net/http.(*persistConn).readLoop"),
				strings.Count(stacks, "net/http.(*conn).serve")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestRemoteCloseLeavesNoConnections pins why the ws and dbproto clients
// need no transport per scenario: they share httpsrv's own bounded pool,
// and after concurrent gateway calls have filled its idle connections,
// closing the scenario's servers ends every pooled connection on both
// sides, promptly.
func TestRemoteCloseLeavesNoConnections(t *testing.T) {
	s, err := New(Options{RemoteDB: true})
	if err != nil {
		t.Fatal(err)
	}
	g := s.Gateway()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		system, table := schema.SysCDB, "Nation"
		if i%2 == 1 {
			system, table = schema.SysBeijing, "Customers"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Query(context.Background(), system, table, nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	pooled, _ := httpGoroutines()
	if pooled == 0 {
		t.Fatal("no pooled client connection before Close; the test proves nothing")
	}

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	took := time.Since(start)
	t.Logf("%d pooled client connections; Close took %v", pooled, took)
	if took > time.Second {
		t.Fatalf("Close took %v", took)
	}
	deadline := time.Now().Add(time.Second)
	for {
		client, server := httpGoroutines()
		if client == 0 && server == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("1s after Close: %d client readLoops and %d server conns remain", client, server)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
