package cluster

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"syscall"
	"time"
)

// maxIdleConnsPerHost bounds the keep-alive connections Transport parks
// per replica between requests.
const maxIdleConnsPerHost = 64

// Transport is the coordinator's default downstream round-tripper: an
// HTTP/1.1 client that runs each exchange on the calling goroutine over
// a per-host pool of keep-alive connections. It writes the request with
// http.Request.Write and parses the answer with http.ReadResponse, so
// the wire format is the standard library's own; what it drops is
// http.Transport's two goroutines per connection, which hand every
// request to a write loop and every answer back from a read loop.
//
// The request context bounds the exchange through the connection's
// deadline: the context's deadline is set on the connection, and
// cancellation moves the deadline into the past. A connection returns
// to the pool only when its answer was read to EOF, the cancellation
// hook was stopped before it fired, and the answer allows keep-alive;
// otherwise it is closed. A request whose pooled connection turns out
// to have been closed by the replica (EOF or a reset before any answer
// byte) is sent once more on a fresh connection, when it can be
// replayed: no body, or a body with GetBody.
//
// A body Transport cannot replay (a streamed upload) is written from a
// second goroutine while the answer is read, so full-duplex exchanges
// such as distances:stream cannot deadlock on full socket buffers;
// those connections are not pooled.
type Transport struct {
	mu   sync.Mutex
	idle map[connKey][]*persistConn
}

// NewTransport returns an empty Transport.
func NewTransport() *Transport {
	return &Transport{idle: make(map[connKey][]*persistConn)}
}

// connKey names one pool: the dial address and whether it speaks TLS.
type connKey struct {
	tls  bool
	addr string
}

// persistConn is one keep-alive connection with its buffered codec
// ends. The reader belongs to the connection: bytes it has buffered
// are the start of the next answer on this connection.
type persistConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	key  connKey
}

// aLongTimeAgo is a deadline in the past: setting it fails every
// blocked and future read or write on the connection at once.
var aLongTimeAgo = time.Unix(1, 0)

func keyFor(u *url.URL) (connKey, error) {
	var port string
	switch u.Scheme {
	case "http":
		port = "80"
	case "https":
		port = "443"
	default:
		return connKey{}, fmt.Errorf("cluster transport: unsupported scheme %q", u.Scheme)
	}
	if u.Host == "" {
		return connKey{}, errors.New("cluster transport: request URL has no host")
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), port)
	}
	return connKey{tls: u.Scheme == "https", addr: addr}, nil
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	key, err := keyFor(req.URL)
	if err != nil {
		closeRequestBody(req)
		return nil, err
	}
	ctx := req.Context()
	if pc := t.get(key); pc != nil {
		resp, stale, err := t.exchange(ctx, pc, req, true)
		if !stale {
			return resp, err
		}
		// The replica closed the idle connection before this request
		// reached it: nothing was answered, so send it once more on a
		// fresh connection if it can be sent again.
		if req, err = rewind(req, err); err != nil {
			return nil, err
		}
	}
	pc, err := t.dial(ctx, key)
	if err != nil {
		closeRequestBody(req)
		return nil, contextError(ctx, err)
	}
	resp, _, err := t.exchange(ctx, pc, req, false)
	return resp, err
}

// CloseIdleConnections closes every pooled connection; connections in
// use are unaffected and rejoin the pool when their answers end.
func (t *Transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = make(map[connKey][]*persistConn)
	t.mu.Unlock()
	for _, pcs := range idle {
		for _, pc := range pcs {
			pc.conn.Close()
		}
	}
}

// get pops the most recently parked connection for key, or nil.
func (t *Transport) get(key connKey) *persistConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	idle := t.idle[key]
	if len(idle) == 0 {
		return nil
	}
	pc := idle[len(idle)-1]
	idle[len(idle)-1] = nil
	t.idle[key] = idle[:len(idle)-1]
	return pc
}

// put parks a connection whose last answer ended cleanly, or closes it
// when its pool is full.
func (t *Transport) put(pc *persistConn) {
	t.mu.Lock()
	if idle := t.idle[pc.key]; len(idle) < maxIdleConnsPerHost {
		t.idle[pc.key] = append(idle, pc)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	pc.conn.Close()
}

func (t *Transport) dial(ctx context.Context, key connKey) (*persistConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", key.addr)
	if err != nil {
		return nil, err
	}
	if key.tls {
		host, _, _ := net.SplitHostPort(key.addr)
		tc := tls.Client(conn, &tls.Config{ServerName: host})
		if err := tc.HandshakeContext(ctx); err != nil {
			conn.Close()
			return nil, err
		}
		conn = tc
	}
	return &persistConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), key: key}, nil
}

// exchange sends req on pc and reads the answer's head. stale reports
// a reused connection that failed before any answer byte arrived while
// the context was still live: the replica had closed it while idle.
func (t *Transport) exchange(ctx context.Context, pc *persistConn, req *http.Request, reused bool) (resp *http.Response, stale bool, err error) {
	// A zero deadline (no context deadline) clears the one a previous
	// exchange left; a connection whose deadline cannot be set is
	// already broken, and its first read or write reports that.
	deadline, _ := ctx.Deadline()
	pc.conn.SetDeadline(deadline) //nolint:errcheck
	stop := context.AfterFunc(ctx, func() {
		pc.conn.SetDeadline(aLongTimeAgo) //nolint:errcheck
	})
	fail := func(err error, noAnswer bool) (*http.Response, bool, error) {
		stop()
		pc.conn.Close()
		return nil, noAnswer && reused && ctx.Err() == nil, contextError(ctx, err)
	}
	streamed := req.Body != nil && req.Body != http.NoBody && req.GetBody == nil
	if streamed {
		// The writer ends when the body is exhausted or a write to the
		// connection fails, which closing the connection guarantees.
		go func() {
			if pc.writeRequest(req) != nil {
				pc.conn.Close()
			}
		}()
	} else if err := pc.writeRequest(req); err != nil {
		return fail(err, true)
	}
	if _, err := pc.br.Peek(1); err != nil {
		return fail(err, err == io.EOF || errors.Is(err, syscall.ECONNRESET))
	}
	resp, err = http.ReadResponse(pc.br, req)
	if err != nil {
		return fail(err, false)
	}
	b := &connBody{t: t, pc: pc, body: resp.Body, ctx: ctx, stop: stop, reuse: !streamed && !resp.Close}
	if resp.Body == http.NoBody {
		b.release(true)
		return resp, false, nil
	}
	resp.Body = b
	return resp, false, nil
}

func (pc *persistConn) writeRequest(req *http.Request) error {
	// Request.Write does not flush a *bufio.Writer it is handed.
	if err := req.Write(pc.bw); err != nil {
		return err
	}
	return pc.bw.Flush()
}

// connBody is an answer body that owns its connection until the answer
// ends. Read and Close must not be called concurrently.
type connBody struct {
	t     *Transport
	pc    *persistConn // nil once the connection is pooled or closed
	body  io.ReadCloser
	ctx   context.Context
	stop  func() bool
	reuse bool
	err   error // what Read returns once the connection is gone
}

var errBodyClosed = errors.New("cluster transport: read on closed response body")

func (b *connBody) Read(p []byte) (int, error) {
	if b.pc == nil {
		return 0, b.err
	}
	n, err := b.body.Read(p)
	switch {
	case err == io.EOF:
		b.release(true)
	case err != nil:
		err = contextError(b.ctx, err)
		b.release(false)
		b.err = err
	}
	return n, err
}

// Close abandons an answer not read to EOF by closing its connection;
// draining it instead could block on a hung or huge answer.
func (b *connBody) Close() error {
	b.release(false)
	return nil
}

// release hands the connection back to the pool after a clean end of
// answer, and closes it otherwise. The cancellation hook must be
// stopped before it fired: once it ran, the connection carries a past
// deadline.
func (b *connBody) release(eof bool) {
	if b.pc == nil {
		return
	}
	pc := b.pc
	b.pc = nil
	b.err = errBodyClosed
	if eof {
		b.err = io.EOF
	}
	if b.stop() && eof && b.reuse {
		b.t.put(pc)
		return
	}
	pc.conn.Close()
}

// contextError reports an I/O failure that the context's deadline or
// cancellation provoked as the context's error, so callers can tell a
// cancelled or expired exchange from a failing replica with errors.Is.
func contextError(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("%w (%v)", cerr, err)
	}
	// The connection's deadline is the context's, and may fire a moment
	// before the context's own timer does.
	if _, ok := ctx.Deadline(); ok && errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("%w (%v)", context.DeadlineExceeded, err)
	}
	return err
}

// rewind returns req ready to be sent again, with a fresh body from
// GetBody, or failed when the request cannot be replayed.
func rewind(req *http.Request, failed error) (*http.Request, error) {
	if req.Body == nil || req.Body == http.NoBody {
		return req, nil
	}
	if req.GetBody == nil {
		return nil, failed
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, failed
	}
	again := *req
	again.Body = body
	return &again, nil
}

func closeRequestBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}
