package httpsrv_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/dbproto"
	rel "repro/internal/relational"
	"repro/internal/schema"
	"repro/internal/ws"
)

// transport is one codec's server as the table test sees it.
type transport struct {
	name    string
	prefix  string // path prefix
	target  string // a name the server resolves
	maxBody int64
	start   func(t *testing.T) (url string, close func() error) // closes on cleanup too
}

var transports = []transport{
	{"ws", "ws", "Beijing", 64 << 20, func(t *testing.T) (string, func() error) {
		db := rel.NewDatabase(schema.SysBeijing)
		schema.SetupBeijingDB(db)
		reg := ws.NewRegistry(0)
		reg.Register(ws.NewService(schema.SysBeijing, db))
		url, err := reg.Start()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = reg.Stop() })
		return url, reg.Stop
	}},
	{"dbproto", "db", "CDB", 128 << 20, func(t *testing.T) (string, func() error) {
		srv := rel.NewServer(0)
		srv.CreateInstance("CDB").MustExec(`CREATE TABLE T (K BIGINT NOT NULL, PRIMARY KEY (K))`)
		remote, err := dbproto.Serve(srv)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = remote.Close() })
		return remote.BaseURL(), remote.Close
	}},
}

// TestTransportTable checks the request handling both codecs share:
// routing, method and body checks, malformed documents, and a drain that
// ignores connections that never carried a request.
func TestTransportTable(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Parallel()
			url, stop := tr.start(t)
			p, name := "/"+tr.prefix, "/"+tr.target
			cases := []struct {
				method, path, body string
				want               int
				wantBody           string
			}{
				{"GET", p + name + "/query", "", http.StatusMethodNotAllowed, "POST only"},
				{"POST", p + "/", "<X/>", http.StatusNotFound, ""},
				{"POST", p + name, "<X/>", http.StatusNotFound, ""},
				{"POST", p + name + "/query/extra", "<X/>", http.StatusNotFound, ""},
				{"POST", "/other" + name + "/query", "<X/>", http.StatusNotFound, ""},
				{"POST", p + "/Atlantis/query", "<X/>", http.StatusNotFound, ""},
				{"POST", p + name + "/teleport", "<X/>", http.StatusNotFound, "unknown operation"},
				{"POST", p + name + "/query", "<not closed", http.StatusBadRequest, "parse"},
			}
			for _, c := range cases {
				req, err := http.NewRequest(c.method, url+c.path, strings.NewReader(c.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != c.want || !strings.Contains(string(body), c.wantBody) {
					t.Errorf("%s %s: %d %q, want %d containing %q",
						c.method, c.path, resp.StatusCode, body, c.want, c.wantBody)
				}
			}

			// A body declared over the limit is refused before it is read.
			host := strings.TrimPrefix(url, "http://")
			conn, err := net.Dial("tcp", host)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(conn, "POST %s/query HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n",
				p+name, host, tr.maxBody+1)
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatal(err)
			}
			_ = resp.Body.Close()
			_ = conn.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("over-limit body: %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
			}

			// A client pool may dial a connection and never send on it; the
			// drain must not treat it as a request in flight. A fresh server,
			// because net/http lingers half a second on the refused body's
			// connection before closing it.
			url, stop = tr.start(t)
			idle, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer idle.Close()
			time.Sleep(50 * time.Millisecond) // let the server accept it
			start := time.Now()
			if err := stop(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("close took %v with an unused connection open", took)
			}
		})
	}
}
