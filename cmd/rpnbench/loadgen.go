package main

import (
	"math/rand"
	"time"

	"repro/internal/safety"
)

// arrival is one frame of an open-loop schedule.
type arrival struct {
	due   time.Duration // offset from the run's start
	class safety.Criticality
	frame uint16 // index into the frame pool
}

// classMix is the nominal/elevated/critical/emergency share of frames.
var classMix = [safety.NumClasses]float64{0.50, 0.30, 0.15, 0.05}

// schedule draws one connection's Poisson arrivals at rate frames/s over
// [0, horizon). The same (seed, conn) always gives the same schedule.
func schedule(seed int64, conn int, rate float64, horizon time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed*7919 + int64(conn)))
	out := make([]arrival, 0, int(rate*horizon.Seconds()*1.05)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= horizon {
			return out
		}
		u := rng.Float64()
		c, acc := safety.Nominal, classMix[0]
		for u >= acc && c < safety.Emergency {
			c++
			acc += classMix[c]
		}
		out = append(out, arrival{due: due, class: c, frame: uint16(rng.Intn(poolSize))})
	}
}

// outcome is the bucket a due frame lands in.
type outcome uint8

const (
	outLost outcome = iota // sent, no RESULT by the end of the drain
	outOK
	outShed
	outError
	outQuarantined
	outRefused // RETRY-AFTER naming the frame
	outSkipped // dropped at the source: its connection was at the cap
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"lost", "ok", "shed", "error", "quarantined", "refused", "skipped"}

// classLimit is each class's latency limit (SLO).
func classLimit(c safety.Criticality) time.Duration {
	if c == safety.Emergency {
		return 5 * time.Millisecond
	}
	return 25 * time.Millisecond
}

// inFlightCap bounds one connection's unanswered frames, below the
// server's 256-message per-connection write buffer, so the client is
// never severed as a slow reader.
const inFlightCap = 200
