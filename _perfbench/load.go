package main

// load.go is the load generator: seeded request streams, closed- and
// open-loop phases over gapd's line-delimited JSON protocol.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"gapbench/internal/core"
	"gapbench/internal/serve"
)

// requestGen draws one connection's requests from its own seeded stream, so
// the same seed gives the same request sequence.
type requestGen struct {
	w      serveWorkload
	rng    *rand.Rand
	inputs []*core.Input
	zipf   []*rand.Zipf
	total  float64
}

func newRequestGen(seed uint64, w serveWorkload, inputs []*core.Input) *requestGen {
	g := &requestGen{w: w, rng: rand.New(rand.NewSource(int64(seed))), inputs: inputs}
	for _, kw := range w.mix {
		g.total += kw.weight
	}
	if w.zipf > 1 {
		for _, in := range inputs {
			g.zipf = append(g.zipf, rand.NewZipf(g.rng, w.zipf, 1, uint64(in.Graph.NumNodes()-1)))
		}
	}
	return g
}

func (g *requestGen) next(id int64) *query {
	u := g.rng.Float64() * g.total
	k := g.w.mix[len(g.w.mix)-1].kernel
	for _, kw := range g.w.mix {
		if u < kw.weight {
			k = kw.kernel
			break
		}
		u -= kw.weight
	}
	gi := g.rng.Intn(len(g.inputs))
	n := int64(g.inputs[gi].Graph.NumNodes())
	v := g.rng.Int63n(n)
	if g.zipf != nil {
		v = int64(g.zipf[gi].Uint64())
	}
	req := serve.Request{ID: strconv.FormatInt(id, 10), Kernel: k, Graph: g.inputs[gi].Spec.Name}
	switch k {
	case "BFS":
		req.Source = v
	case "SSSP":
		req.Source = v
		t := g.rng.Int63n(n)
		req.Target = &t
	case "PR":
		req.K = 10
	case "CC":
		req.Vertex = v
	}
	return &query{graph: gi, req: req, queryID: id}
}

// drive runs one load phase of length dur over serveConns connections and
// reads the daemon's counters around it.
func drive(sock string, w serveWorkload, inputs []*core.Input, seed uint64, dur time.Duration) (*phase, error) {
	ph := &phase{}
	var err error
	if ph.before, err = daemonStats(sock); err != nil {
		return nil, err
	}
	conns := make([]*clientConn, serveConns)
	for c := range conns {
		if conns[c], err = dial(sock); err != nil {
			for _, cc := range conns[:c] {
				cc.c.Close()
			}
			return nil, err
		}
	}
	perConn := make([][]*query, serveConns)
	errs := make([]error, serveConns)
	var wg sync.WaitGroup
	ph.start = time.Now()
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer conns[c].c.Close()
			gen := newRequestGen(derive(seed, "conn", c), w, inputs)
			base := int64(c+1) << 32
			if w.rate > 0 {
				perConn[c], errs[c] = openLoop(conns[c], gen, base, w.rate/serveConns, ph.start, dur)
			} else {
				perConn[c], errs[c] = closedLoop(conns[c], gen, base, ph.start, dur)
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, qs := range perConn {
		ph.queries = append(ph.queries, qs...)
	}
	if ph.after, err = daemonStats(sock); err != nil {
		return nil, err
	}
	return ph, nil
}

// closedLoop sends the next request only after the previous reply, until the
// window has passed.
func closedLoop(c *clientConn, gen *requestGen, base int64, start time.Time, dur time.Duration) ([]*query, error) {
	if err := c.c.SetReadDeadline(start.Add(dur + replyWait)); err != nil {
		return nil, err
	}
	var qs []*query
	for seq := int64(0); time.Since(start) < dur; seq++ {
		q := gen.next(base + seq)
		qs = append(qs, q)
		q.sent = time.Since(start)
		if q.sendErr = c.send(q.req); q.sendErr != nil {
			return qs, fmt.Errorf("sending: %w", q.sendErr)
		}
		resp, err := c.recv()
		if err != nil {
			return qs, fmt.Errorf("receiving: %w", err)
		}
		q.recv = time.Since(start)
		if resp.ID != q.req.ID {
			return qs, fmt.Errorf("reply id %q to request %q", resp.ID, q.req.ID)
		}
		q.resp, q.answered = resp, true
	}
	return qs, nil
}

// openLoop sends on a Poisson schedule drawn from the connection's stream,
// whether or not earlier replies have come back; a reader matches replies by
// id. A request's lateness is its send time minus its due time.
func openLoop(c *clientConn, gen *requestGen, base int64, rate float64, start time.Time, dur time.Duration) ([]*query, error) {
	if err := c.c.SetReadDeadline(start.Add(dur + replyWait)); err != nil {
		return nil, err
	}
	qs := poissonSchedule(gen, base, rate, dur)
	byID := make(map[string]*query, len(qs))
	for _, q := range qs {
		byID[q.req.ID] = q
	}
	var sendErr error
	sent := make(chan int, 1) // how many requests went out, once the sender is done
	go func() {
		n := 0
		defer func() { sent <- n }()
		for _, q := range qs {
			if wait := q.due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			q.sent = time.Since(start)
			if q.sendErr = c.send(q.req); q.sendErr != nil {
				sendErr = q.sendErr
				return
			}
			n++
		}
	}()
	var recvErr error
	for got := 0; got < len(qs); got++ {
		resp, err := c.recv()
		if err != nil {
			recvErr = err // unanswered queries stay unanswered
			break
		}
		at := time.Since(start)
		q := byID[resp.ID]
		if q == nil || q.answered {
			recvErr = fmt.Errorf("unexpected reply id %q", resp.ID)
			break
		}
		q.recv, q.resp, q.answered = at, resp, true
	}
	if recvErr != nil {
		c.c.Close() // unblocks a sender stuck on a full socket
	}
	n := <-sent
	if sendErr != nil {
		return qs, fmt.Errorf("sending: %w", sendErr)
	}
	if recvErr != nil && !errors.Is(recvErr, os.ErrDeadlineExceeded) {
		return qs, fmt.Errorf("receiving: %w", recvErr)
	}
	return qs[:n], nil
}

// poissonSchedule draws one connection's requests and due times for a window.
func poissonSchedule(gen *requestGen, base int64, rate float64, dur time.Duration) []*query {
	var qs []*query
	var t float64
	for seq := int64(0); ; seq++ {
		t += gen.rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return qs
		}
		q := gen.next(base + seq)
		q.due = due
		qs = append(qs, q)
	}
}

// clientConn is one connection speaking gapd's line-delimited JSON.
type clientConn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dial(sock string) (*clientConn, error) {
	c, err := net.Dial("unix", sock)
	if err != nil {
		return nil, err
	}
	return &clientConn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}, nil
}

func (c *clientConn) send(req serve.Request) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if _, err := c.w.Write(append(b, '\n')); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *clientConn) recv() (serve.Response, error) {
	var resp serve.Response
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return resp, err
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return resp, fmt.Errorf("bad reply %q: %w", line, err)
	}
	return resp, nil
}

// call sends one control request on a fresh connection.
func call(sock string, req serve.Request) (serve.Response, error) {
	c, err := dial(sock)
	if err != nil {
		return serve.Response{}, err
	}
	defer c.c.Close()
	if err := c.send(req); err != nil {
		return serve.Response{}, err
	}
	return c.recv()
}
