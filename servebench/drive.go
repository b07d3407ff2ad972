package main

// The request sender: closed loops of waiting clients and an open loop on a
// Poisson schedule, over at most maxConns loopback connections.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one request saw.
type outcome struct {
	req
	status int
	body   []byte
	err    error
	sent   time.Duration // offset from the phase start when the request was sent
	done   time.Duration // offset when the response was fully read
}

// latency is the client-side latency: from when the request was due for an
// open loop, which charges a stall to every request it delays, and from
// send for a closed loop.
func (o outcome) latency(open bool) time.Duration {
	if open {
		return o.done - o.due
	}
	return o.done - o.sent
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// sender posts planned requests to one server.
type sender struct {
	client *http.Client
	url    string
	inputs *inputSet
}

func newSender(base string, in *inputSet) *sender {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &sender{client: &http.Client{Transport: tr}, url: base + "/detect", inputs: in}
}

func (d *sender) close() { d.client.CloseIdleConnections() }

// post sends one request and reads the whole response.
func (d *sender) post(ctx context.Context, r req, start time.Time) outcome {
	o := outcome{req: r}
	// The input's encoded prefix is streamed, not copied, to keep the
	// benchmark's own work per request small next to the server's.
	var readers []io.Reader
	var n int64
	for _, b := range d.inputs.body(r) {
		readers = append(readers, bytes.NewReader(b))
		n += int64(len(b))
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url, io.MultiReader(readers...))
	if err != nil {
		o.err = err
		return o
	}
	hr.ContentLength = n
	hr.Header.Set("Content-Type", "application/json")
	o.sent = time.Since(start)
	resp, err := d.client.Do(hr)
	if err != nil {
		o.err = err
		o.done = time.Since(start)
		return o
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Since(start)
	o.status = resp.StatusCode
	return o
}

// closed runs clients closed loops over reqs in sequence order until the
// plan is exhausted or, when limit > 0, limit has elapsed since start;
// requests already sent complete. It returns the outcomes of the requests sent, in
// sequence order, and the phase's wall time.
func (d *sender) closed(ctx context.Context, start time.Time, reqs []req, clients int, limit time.Duration) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// The time check comes before the claim, so every claimed
				// index is sent and the sent requests are a prefix of reqs.
				if (limit > 0 && time.Since(start) >= limit) || ctx.Err() != nil {
					return
				}
				k := int(next.Add(1) - 1)
				if k >= len(reqs) {
					return
				}
				out[k] = d.post(ctx, reqs[k], start)
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), len(reqs))], time.Since(start)
}

// open sends reqs on their due offsets from start, each from its own goroutine, so a
// slow reply never delays the next send; the transport queues requests
// beyond maxConns. lag[k] is how late request k left the generator.
func (d *sender) open(ctx context.Context, start time.Time, reqs []req) ([]outcome, []time.Duration, time.Duration) {
	out := make([]outcome, len(reqs))
	lag := make([]time.Duration, len(reqs))
	var wg sync.WaitGroup
	for k, r := range reqs {
		if wait := r.due - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			out = out[:k]
			lag = lag[:k]
			break
		}
		lag[k] = time.Since(start) - r.due
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[k] = d.post(ctx, r, start)
		}()
	}
	wg.Wait()
	return out, lag, time.Since(start)
}
