package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator is open loop: arrivals follow a Poisson schedule
// drawn from the seed, every request is timed from when it was due, and
// a request that waited for the generator counts that wait. Requests
// travel as HTTP/2 streams over at most two unencrypted connections, so
// the server sees real concurrency while the process stays within the
// host's two cores.

// arrival is one scheduled request.
type arrival struct {
	at    time.Duration // due time after the phase start
	class int
	idx   int // input-pool index
	rung  int
}

// poisson appends arrivals at rate per second over dur, classes drawn
// with the given weights, pool indices uniform below pool.
func poisson(rng *rand.Rand, out []arrival, from, dur time.Duration, rate float64, weights []float64, pool, rung int) []arrival {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for t := from + time.Duration(rng.ExpFloat64()/rate*1e9); t < from+dur; t += time.Duration(rng.ExpFloat64() / rate * 1e9) {
		u, class := rng.Float64()*total, 0
		for class < len(weights)-1 && u >= weights[class] {
			u -= weights[class]
			class++
		}
		out = append(out, arrival{at: t, class: class, idx: rng.Intn(pool), rung: rung})
	}
	return out
}

// outcome is one completed request.
type outcome struct {
	arrival
	late    float64 // seconds the generator started it after its due time
	latency float64 // seconds from due time to reply
	err     error
}

// openLoop issues every arrival at its due time, each on its own
// goroutine, and returns when all have completed. do performs request i
// and returns when its reply arrived, which ends its latency, before
// checking the reply.
func openLoop(start time.Time, arrivals []arrival, do func(i int, a arrival) (time.Time, error)) []outcome {
	out := make([]outcome, len(arrivals))
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due).Seconds()
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			replied, err := do(i, a)
			out[i] = outcome{arrival: a, late: late, latency: replied.Sub(due).Seconds(), err: err}
		}(i, a, due)
	}
	wg.Wait()
	return out
}

// h2c returns HTTP/2-without-TLS protocol settings.
func h2c() *http.Protocols {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &p
}

// h2Server serves h on a fresh loopback listener over unencrypted
// HTTP/2; stop shuts it down and waits for Serve to return.
func h2Server(h http.Handler) (addr string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, Protocols: h2c(), HTTP2: &http.HTTP2Config{
		MaxConcurrentStreams:          4096,
		MaxReceiveBufferPerConnection: 64 << 20,
		MaxReceiveBufferPerStream:     4 << 20,
	}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(l)
	}()
	return l.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-done
	}, nil
}

// clientPool is the generator's connections: two HTTP/2 clients, each
// holding a single connection that multiplexes every stream.
type clientPool struct {
	cs   []*http.Client
	next atomic.Uint64
}

func newClientPool(conns int) *clientPool {
	p := &clientPool{}
	for i := 0; i < conns; i++ {
		tr := &http.Transport{Protocols: h2c()}
		p.cs = append(p.cs, &http.Client{Transport: tr})
	}
	return p
}

func (p *clientPool) pick() *http.Client {
	return p.cs[p.next.Add(1)%uint64(len(p.cs))]
}

func (p *clientPool) close() {
	for _, c := range p.cs {
		c.CloseIdleConnections()
	}
}

// bufs recycles reply buffers, so the generator's own garbage stays
// small beside the server's.
var bufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// post sends body and reads the reply into a pooled buffer, failing on
// any status but 200. The caller returns the buffer to bufs.
func (p *clientPool) post(ctx context.Context, url, contentType string, body []byte) (*bytes.Buffer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := p.pick().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf := bufs.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		bufs.Put(buf)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
		bufs.Put(buf)
		return nil, err
	}
	return buf, nil
}
