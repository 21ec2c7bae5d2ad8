package httpsrv_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

// badResultSet builds a one-column result set for table with the given
// column type and Rows content.
func badResultSet(table, colType, row string) string {
	return `<ResultSet name="` + table + `"><Metadata><Column key="true" name="K" type="` + colType +
		`"></Column></Metadata><Rows>` + row + `</Rows></ResultSet>`
}

// TestErrorParity pins the status and text every operation answers to
// malformed, mistyped and oversized requests, so a change to how the codecs
// read request bodies cannot move an error answer.
func TestErrorParity(t *testing.T) {
	const (
		malformed = "<not closed"
		wrongRoot = "<Bogus></Bogus>"
		parseErr  = "400 parse: xmlmsg: parse: XML syntax error on line 1: unexpected EOF"
	)
	cellCount := badResultSet("T", "BIGINT", "<Row><V>1</V><V>2</V></Row>")
	unknownType := badResultSet("T", "BLOB", "<Row><V>1</V></Row>")
	badValue := badResultSet("T", "BIGINT", "<Row><V>one</V></Row>")
	wsCellCount := strings.Replace(cellCount, `name="T"`, `name="Customers"`, 1)
	wsUnknownType := strings.Replace(unknownType, `name="T"`, `name="Customers"`, 1)
	cases := []struct {
		transport, op, body string
		want                string
	}{
		{"dbproto", "query", malformed, parseErr},
		{"dbproto", "insert", malformed, parseErr},
		{"dbproto", "upsert", malformed, parseErr},
		{"dbproto", "delete", malformed, parseErr},
		{"dbproto", "update", malformed, parseErr},
		{"dbproto", "call", malformed, parseErr},
		{"dbproto", "snapshot", malformed, parseErr},
		{"dbproto", "restore", malformed, parseErr},

		{"dbproto", "query", wrongRoot, "400 dbproto: query expects a Query document"},
		{"dbproto", "insert", wrongRoot, "400 dbproto: load expects a ResultSet document"},
		{"dbproto", "upsert", wrongRoot, "400 dbproto: load expects a ResultSet document"},
		{"dbproto", "delete", wrongRoot, "400 dbproto: delete expects a Delete document"},
		{"dbproto", "update", wrongRoot, "400 dbproto: update expects an Update document"},
		{"dbproto", "call", wrongRoot, "400 dbproto: call expects a Call document"},
		{"dbproto", "snapshot", wrongRoot, "400 dbproto: snapshot expects a Snapshot document"},
		{"dbproto", "restore", wrongRoot, "400 dbproto: restore expects a Restore document"},

		{"dbproto", "query", `<Query table="Nope"></Query>`, "400 relational: no table CDB.Nope"},
		{"dbproto", "delete", `<Delete table="T" where="K ="></Delete>`,
			`400 sql: expected literal at 3, got "" (in predicate "K =")`},
		{"dbproto", "update", `<Update table="T"><Set col="Z" type="BIGINT">1</Set></Update>`,
			`400 dbproto: no column "Z"`},
		{"dbproto", "update", `<Update table="T"><Set col="K" type="BLOB">1</Set></Update>`,
			`400 relational: unknown type name "BLOB"`},
		{"dbproto", "call", `<Call proc="nope"></Call>`, "400 relational: no procedure CDB.nope"},
		{"dbproto", "restore", `<Restore enc="hex">00</Restore>`, `400 dbproto: restore: unsupported encoding "hex"`},
		{"dbproto", "restore", `<Restore enc="base64">!!</Restore>`,
			"400 dbproto: restore: illegal base64 data at input byte 0"},
		{"dbproto", "insert", cellCount, "400 xmlmsg: row 0 has 2 cells, schema has 1 columns"},
		{"dbproto", "upsert", cellCount, "400 xmlmsg: row 0 has 2 cells, schema has 1 columns"},
		{"dbproto", "insert", unknownType, `400 xmlmsg: relational: unknown type name "BLOB"`},
		{"dbproto", "upsert", unknownType, `400 xmlmsg: relational: unknown type name "BLOB"`},
		{"dbproto", "insert", badValue,
			`400 xmlmsg: row 0 column K: relational: parse int "one": strconv.ParseInt: parsing "one": invalid syntax`},
		{"dbproto", "insert", `<ResultSet name="T"><Rows></Rows></ResultSet>`, "400 xmlmsg: ResultSet without Metadata"},

		{"ws", "query", malformed, parseErr},
		{"ws", "update", malformed, parseErr},
		{"ws", "query", wrongRoot, "400 ws: query operation expects a Query document, got Bogus"},
		{"ws", "query", `<Query table="Nope"></Query>`, `400 ws: service Beijing has no table "Nope"`},
		{"ws", "update", wrongRoot, `400 ws: service Beijing has no handler for message "Bogus"`},
		{"ws", "update", wsCellCount, "400 xmlmsg: row 0 has 2 cells, schema has 1 columns"},
		{"ws", "update", wsUnknownType, `400 xmlmsg: relational: unknown type name "BLOB"`},
		{"ws", "update", badResultSet("Nope", "BIGINT", "<Row><V>1</V></Row>"),
			`400 ws: service Beijing has no table "Nope"`},
	}
	urls := map[string]string{}
	for _, tr := range transports {
		url, _ := tr.start(t)
		urls[tr.name] = url + "/" + tr.prefix + "/" + tr.target + "/"
	}
	for _, c := range cases {
		resp, err := http.Post(urls[c.transport]+c.op, "application/xml", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if got := fmt.Sprintf("%d %s", resp.StatusCode, strings.TrimSuffix(string(body), "\n")); got != c.want {
			t.Errorf("%s %s %.40q:\n got %s\nwant %s", c.transport, c.op, c.body, got, c.want)
		}
	}

	// A body declared over the limit is refused by every operation before
	// it is read.
	for _, tr := range transports {
		ops := []string{"query", "update"}
		if tr.name == "dbproto" {
			ops = []string{"query", "insert", "upsert", "delete", "update", "call", "snapshot", "restore"}
		}
		base := urls[tr.name]
		host := strings.TrimPrefix(base, "http://")
		host = host[:strings.IndexByte(host, '/')]
		for _, op := range ops {
			conn, err := net.Dial("tcp", host)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n",
				strings.TrimPrefix(base, "http://"+host)+op, host, tr.maxBody+1)
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			_ = conn.Close()
			got := fmt.Sprintf("%d %s", resp.StatusCode, strings.TrimSuffix(string(body), "\n"))
			if want := "413 request body too large"; got != want {
				t.Errorf("%s %s over-size body: %s, want %s", tr.name, op, got, want)
			}
		}
	}
}
