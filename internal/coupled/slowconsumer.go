// slowconsumer is the repository's one statement of the slow-consumer
// argument: with a mixed fleet of fast and slow consumers behind bounded
// per-consumer queues, what does each shedding policy do to stream
// integrity and delivery latency? It is self-contained exact arithmetic
// on a discrete timeline — it imports no transport — and it is why
// multi-frame streams are shed whole, never per frame (DESIGN.md §10).
//
// Two policies are compared. Drop-oldest is the blind baseline: the
// producer never blocks, and a full queue evicts its head frame
// regardless of kind — so a chunk stream's header can vanish while its
// chunks survive, and the consumer observes torn streams. Credit/group
// has two halves, each implemented once on the TCP path:
//
//   - the producer is paced by what the consumer has drained (one credit
//     per frame here): TCP back-pressure. transport.TCPLink.Send blocks
//     in the socket write once the receiver's pump (remote.Consumer.pump,
//     feeding the builder through the bounded ConsumerConfig.FrameBuffer
//     hand-off) stops reading; nothing is dropped on the wire.
//   - only whole superseded versions are shed, never a frame out of the
//     middle of a stream: the consumer's builder drops an interrupted
//     build as a group (remote.Consumer.assemble), and a relay session
//     abandons the fan-out of a version a newer commit superseded
//     (relay session.send, counted as AbandonedFanouts) and restarts on
//     the newer one — so a slow consumer skips intermediate versions
//     cleanly and never installs a torn one.
//
// The simulator's in-process link (transport.Link) carries one whole
// checkpoint per frame, so for it "the group" is the frame and its
// SendLatest is latest-wins per frame.
package coupled

import (
	"fmt"
	"sort"
	"time"
)

// Policy selects the shedding discipline of a slow-consumer run.
type Policy string

const (
	// PolicyDropOldest is the blind baseline: never block, evict the
	// oldest queued frame on overflow.
	PolicyDropOldest Policy = "drop-oldest"
	// PolicyCreditGroup is credit-based flow control with whole-group
	// shedding of superseded versions.
	PolicyCreditGroup Policy = "credit-group"
)

// ConsumerSpec is one consumer in the modelled fleet.
type ConsumerSpec struct {
	// Name labels the consumer in the results.
	Name string
	// Drain is the consumer's per-frame processing time (install,
	// decode, apply). A slow consumer has Drain well above the wire's
	// per-frame time.
	Drain time.Duration
}

// SlowConsumerConfig describes one slow-consumer scenario.
type SlowConsumerConfig struct {
	// Versions is how many checkpoint versions the producer publishes.
	Versions int
	// Frames is the frame count of one version's stream (1 header +
	// Frames-1 chunks; must be >= 2 for the torn-stream question to be
	// non-trivial).
	Frames int
	// PublishEvery is the interval between successive versions becoming
	// ready at the producer.
	PublishEvery time.Duration
	// FrameTime is the wire time of one frame on a consumer's link.
	FrameTime time.Duration
	// Depth is the per-consumer link queue capacity, in frames.
	Depth int
	// Window is the credit window for PolicyCreditGroup (ignored by the
	// baseline). The consumer grants one credit back per drained frame.
	Window int
	// Consumers is the fleet.
	Consumers []ConsumerSpec
}

// Validate reports configuration errors.
func (c SlowConsumerConfig) Validate() error {
	if c.Versions < 1 {
		return fmt.Errorf("coupled: Versions %d < 1", c.Versions)
	}
	if c.Frames < 2 {
		return fmt.Errorf("coupled: Frames %d < 2 (a stream needs a header and a chunk)", c.Frames)
	}
	if c.PublishEvery <= 0 || c.FrameTime <= 0 {
		return fmt.Errorf("coupled: PublishEvery (%v) and FrameTime (%v) must be positive", c.PublishEvery, c.FrameTime)
	}
	if c.Depth < 1 {
		return fmt.Errorf("coupled: Depth %d < 1", c.Depth)
	}
	if c.Window < 1 {
		return fmt.Errorf("coupled: Window %d < 1", c.Window)
	}
	if len(c.Consumers) == 0 {
		return fmt.Errorf("coupled: Consumers must list at least one consumer")
	}
	for _, cs := range c.Consumers {
		if cs.Name == "" {
			return fmt.Errorf("coupled: consumer with empty name")
		}
		if cs.Drain < 0 {
			return fmt.Errorf("coupled: consumer %s Drain %v < 0", cs.Name, cs.Drain)
		}
	}
	return nil
}

// ConsumerOutcome is one consumer's measured behaviour under one policy.
type ConsumerOutcome struct {
	// Name is the consumer's label.
	Name string
	// TornStreams counts collect attempts aborted by a frame that did
	// not belong to the stream being assembled.
	TornStreams int
	// Completed counts versions collected intact.
	Completed int
	// FinalVersion is the newest version collected intact (0 if none).
	FinalVersion int
	// P50 and P99 are publish-to-ready latency quantiles over the
	// completed versions.
	P50 time.Duration
	P99 time.Duration
}

// SlowConsumerResult is one policy's outcome across the fleet.
type SlowConsumerResult struct {
	// Policy is the shedding discipline that produced these outcomes.
	Policy Policy
	// Outcomes holds one entry per configured consumer, in order.
	Outcomes []ConsumerOutcome
}

// Outcome returns the named consumer's outcome (zero value if absent).
func (r *SlowConsumerResult) Outcome(name string) ConsumerOutcome {
	for _, o := range r.Outcomes {
		if o.Name == name {
			return o
		}
	}
	return ConsumerOutcome{}
}

// simFrame is one frame on the modelled wire.
type simFrame struct {
	ver int // 1-based version
	idx int // 0 is the header
}

// RunSlowConsumer evaluates the scenario under one policy. Each
// consumer has an independent link to the producer (the relay tier's
// per-session independence), so consumers are simulated independently
// on exact arithmetic timelines.
func RunSlowConsumer(cfg SlowConsumerConfig, policy Policy) (*SlowConsumerResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy != PolicyDropOldest && policy != PolicyCreditGroup {
		return nil, fmt.Errorf("coupled: unknown policy %q", policy)
	}
	res := &SlowConsumerResult{Policy: policy}
	for _, cs := range cfg.Consumers {
		res.Outcomes = append(res.Outcomes, simulateConsumer(cfg, policy, cs))
	}
	return res, nil
}

// simulateConsumer runs one producer/consumer pair to completion.
func simulateConsumer(cfg SlowConsumerConfig, policy Policy, cs ConsumerSpec) ConsumerOutcome {
	pub := func(v int) time.Duration { return time.Duration(v-1) * cfg.PublishEvery }

	var (
		queue   []simFrame
		headAt  []time.Duration // per-queued-frame arrival times
		tProd   time.Duration   // producer free at
		tCons   time.Duration   // consumer free at
		credits = cfg.Window
		cv      = 1              // version being sent
		started = map[int]bool{} // versions the consumer began draining
	)

	// Collector state (the consumer's CollectChunked equivalent).
	collecting, got := 0, 0
	out := ConsumerOutcome{Name: cs.Name}
	var latencies []time.Duration

	producerDone := false
	sendIdx := 0 // next frame index of cv to send

	// newestDue returns the newest version published by t.
	newestDue := func(t time.Duration) int {
		v := int(t/cfg.PublishEvery) + 1
		if v > cfg.Versions {
			v = cfg.Versions
		}
		return v
	}

	// shedQueued removes every queued frame of version v (whole-group
	// shed), refunding its credits. Versions are enqueued in order and
	// only the newest, not-yet-started group is ever shed, so v's frames
	// are a contiguous tail of the queue.
	shedQueued := func(v int) {
		n := len(queue)
		for n > 0 && queue[n-1].ver == v {
			n--
			credits++
		}
		queue = queue[:n]
		headAt = headAt[:n]
	}

	dequeue := func() (simFrame, time.Duration) {
		f := queue[0]
		at := headAt[0]
		queue = queue[1:]
		headAt = headAt[1:]
		return f, at
	}

	handleFrame := func(f simFrame, done time.Duration) {
		if f.idx == 0 {
			if collecting != 0 {
				out.TornStreams++
			}
			collecting, got = f.ver, 1
		} else {
			switch {
			case collecting == f.ver && f.idx == got:
				got++
			case collecting == 0:
				// A chunk with no stream open: the header was evicted
				// before the consumer saw it.
				out.TornStreams++
				return
			default:
				out.TornStreams++
				collecting, got = 0, 0
				return
			}
		}
		if got == cfg.Frames {
			out.Completed++
			if f.ver > out.FinalVersion {
				out.FinalVersion = f.ver
			}
			latencies = append(latencies, done-pub(f.ver))
			collecting, got = 0, 0
		}
	}

	// now is the simulation clock: the completion time of the last
	// applied event. Events are applied in completion order, so a
	// producer unblocked by a consumer drain cannot start its next send
	// before that drain's completion — without this floor a blocked
	// producer's stale tProd would let superseding versions go unnoticed.
	var now time.Duration

	for !producerDone || len(queue) > 0 {
		// Producer's next enqueue, if it has work and may proceed.
		prodReady := !producerDone
		var sendStart time.Duration
		if prodReady {
			sendStart = tProd
			if now > sendStart {
				sendStart = now
			}
			if at := pub(cv); at > sendStart {
				sendStart = at
			}
			if policy == PolicyCreditGroup {
				// Supersede before spending wire time: a newer version is
				// due and the current group has not started draining, so
				// the whole group (queued portion and unsent remainder)
				// is shed and the producer jumps to the newest version.
				for {
					due := newestDue(sendStart)
					if due > cv && !started[cv] {
						shedQueued(cv)
						cv, sendIdx = due, 0
						if at := pub(cv); at > sendStart {
							sendStart = at
						}
						continue
					}
					break
				}
				if len(queue) >= cfg.Depth || credits < 1 {
					prodReady = false // blocked on the consumer
				}
			}
		}

		consReady := len(queue) > 0
		var consStart time.Duration
		if consReady {
			consStart = tCons
			if headAt[0] > consStart {
				consStart = headAt[0]
			}
		}

		if prodReady && (!consReady || sendStart+cfg.FrameTime <= consStart+cs.Drain) {
			done := sendStart + cfg.FrameTime
			if policy == PolicyDropOldest && len(queue) >= cfg.Depth {
				// Blind eviction: the head goes, whatever it is.
				queue = queue[1:]
				headAt = headAt[1:]
			}
			if policy == PolicyCreditGroup {
				credits--
			}
			queue = append(queue, simFrame{ver: cv, idx: sendIdx})
			headAt = append(headAt, done)
			tProd, now = done, done
			sendIdx++
			if sendIdx == cfg.Frames {
				// Group complete: move to the newest due version, skipping
				// versions superseded before they started.
				next := newestDue(done)
				if next <= cv {
					next = cv + 1
				}
				if next > cfg.Versions {
					producerDone = true
				} else {
					cv, sendIdx = next, 0
				}
			}
			continue
		}
		if consReady {
			f, _ := dequeue()
			started[f.ver] = true
			done := consStart + cs.Drain
			tCons, now = done, done
			if policy == PolicyCreditGroup && credits < cfg.Window {
				credits++
			}
			handleFrame(f, done)
			continue
		}
		// Unreachable: a blocked producer implies queued frames (credits
		// return with every drain and every shed), so the consumer always
		// has a move. Guard against model drift with a hard stop rather
		// than a spin.
		break
	}

	out.P50 = durationQuantile(latencies, 0.50)
	out.P99 = durationQuantile(latencies, 0.99)
	return out
}

// durationQuantile returns the q-quantile of ds (0 for an empty set).
func durationQuantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// DefaultSlowConsumerConfig is the scenario viper-bench -exp slowconsumer
// prints and TestSlowConsumerPoliciesDiverge asserts: one fast consumer keeping pace with the wire and one
// slow consumer an order of magnitude behind it, behind a queue shorter
// than one version's stream.
func DefaultSlowConsumerConfig() SlowConsumerConfig {
	return SlowConsumerConfig{
		Versions:     64,
		Frames:       8,
		PublishEvery: 10 * time.Millisecond,
		FrameTime:    100 * time.Microsecond,
		Depth:        6,
		Window:       6,
		Consumers: []ConsumerSpec{
			{Name: "fast", Drain: 150 * time.Microsecond},
			{Name: "slow", Drain: 4 * time.Millisecond},
		},
	}
}
