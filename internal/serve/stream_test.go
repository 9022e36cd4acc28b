package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestServeStreamEndpoint: the pipelined NDJSON endpoint answers each
// line byte-identically to the point endpoint, skips blanks and
// comments, and terminates with one error line on a malformed query.
func TestServeStreamEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createRelease(t, ts, `{"name":"main","mechanism":"release","epsilon":2,"seed":7}`)

	queries := [][2]int{{0, 15}, {1, 2}, {3, 3}, {15, 0}}
	var want []string
	for _, q := range queries {
		status, data := get(t, fmt.Sprintf("%s/v1/releases/main/distance?s=%d&t=%d", ts.URL, q[0], q[1]))
		if status != http.StatusOK {
			t.Fatalf("point %v: status %d: %s", q, status, data)
		}
		want = append(want, string(data))
	}

	body := "0 15\n\n# comment\n1 2\n  3 3 \n15 0\n"
	resp, err := http.Post(ts.URL+"/v1/releases/main/distances:stream", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q, want application/x-ndjson", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(want) {
		t.Fatalf("stream answered %d lines, want %d: %q", len(lines), len(want), lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("stream line %d = %s, point answer = %s", i, lines[i], want[i])
		}
	}
}

// TestServeStreamBadLine: answers already queued are delivered before
// the error line, and the stream ends there.
func TestServeStreamBadLine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createRelease(t, ts, `{"name":"main","mechanism":"release","epsilon":2,"seed":7}`)

	for _, tc := range []struct {
		body        string
		wantAnswers int
		wantLine    string
	}{
		{"0 15\nbogus line\n1 2\n", 1, "stream line 2:"},   // malformed second line
		{"0 99\n", 0, "stream line 1:"},                    // out of range
		{"0 1 2\n", 0, "stream line 1:"},                   // three fields
		{"# header\n\n0 15\nbogus\n", 1, "stream line 4:"}, // blank and comment lines count, as in a batch
	} {
		resp, err := http.Post(ts.URL+"/v1/releases/main/distances:stream", "text/plain", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		resp.Body.Close()
		if len(lines) != tc.wantAnswers+1 {
			t.Fatalf("stream %q: %d lines, want %d answers + 1 error: %q", tc.body, len(lines), tc.wantAnswers, lines)
		}
		for i := 0; i < tc.wantAnswers; i++ {
			var ans PairAnswer
			if err := json.Unmarshal([]byte(lines[i]), &ans); err != nil {
				t.Errorf("stream %q line %d: not an answer: %s", tc.body, i, lines[i])
			}
		}
		var env errorEnvelope
		last := lines[len(lines)-1]
		if err := json.Unmarshal([]byte(last), &env); err != nil || !strings.HasPrefix(env.Error, tc.wantLine) {
			t.Errorf("stream %q final line = %s, want an error envelope naming %q", tc.body, last, tc.wantLine)
		}
	}
}
