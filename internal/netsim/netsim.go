package netsim

import (
	"math/rand"
)

// Packet is one generated packet arrival.
type Packet struct {
	TimeMs float64 // arrival time in milliseconds
	Size   int64   // bytes on the wire
	Flow   int     // flow identity (maps to a DRR queue)
}

// Config controls trace generation. Zero values select defaults matching
// the paper's setting.
type Config struct {
	Seed     int64
	RateMbps float64 // average offered load (default 10)
	Flows    int     // number of flows (default 16)
	PhaseMs  float64 // duration of one traffic-mix phase (default 500)
	Phases   int     // number of phases (default 6)
	OnMs     float64 // mean burst (ON) duration (default 40)
	OffMs    float64 // mean silence (OFF) duration (default 40)
}

func (c *Config) defaults() {
	if c.RateMbps == 0 {
		c.RateMbps = 10
	}
	if c.Flows == 0 {
		c.Flows = 16
	}
	if c.PhaseMs == 0 {
		c.PhaseMs = 500
	}
	if c.Phases == 0 {
		c.Phases = 6
	}
	if c.OnMs == 0 {
		c.OnMs = 40
	}
	if c.OffMs == 0 {
		c.OffMs = 40
	}
}

// sizeModes are the packet-size modes of wide-area traffic (ACKs, small
// TCP segments, MTU-size data packets and intermediate sizes). Each phase
// promotes one mode to dominance so the mix drifts over the trace; the
// modes are chosen so consecutive dominant sizes land in distinct
// power-of-two classes, as the archive's real mixes do.
// The real archive's strongest modes (40-byte ACKs, 552/576-byte TCP
// segments) sit just above power-of-two boundaries once buffer metadata is
// added — the property that makes power-of-two allocators waste near half
// the buffer memory; the synthetic modes preserve it.
var sizeModes = []int64{20, 40, 110, 240, 552, 1120}

// Duration returns the total trace duration in milliseconds.
func Duration(cfg Config) float64 {
	cfg.defaults()
	return cfg.PhaseMs * float64(cfg.Phases)
}

// Generate produces the packet arrivals for cfg, ordered by time.
func Generate(cfg Config) []Packet {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	avgBytesPerMs := cfg.RateMbps * 1e6 / 8 / 1000
	duty := cfg.OnMs / (cfg.OnMs + cfg.OffMs)
	peakBytesPerMs := avgBytesPerMs / duty

	var pkts []Packet
	on := true
	stateLeft := expo(rng, cfg.OnMs)
	var carry float64 // fractional byte budget carried between ticks

	total := Duration(cfg)
	for t := 0.0; t < total; t++ {
		phase := int(t / cfg.PhaseMs)
		if phase >= cfg.Phases {
			phase = cfg.Phases - 1
		}
		stateLeft--
		if stateLeft <= 0 {
			on = !on
			if on {
				stateLeft = expo(rng, cfg.OnMs)
			} else {
				stateLeft = expo(rng, cfg.OffMs)
			}
		}
		if !on {
			continue
		}
		carry += peakBytesPerMs
		for carry > 0 {
			size := samplePacketSize(rng, phase)
			carry -= float64(size)
			// Flows are phase-local: sessions start and end as the
			// traffic mix drifts, so per-flow state churns over time.
			pkts = append(pkts, Packet{
				TimeMs: t + rng.Float64(),
				Size:   size,
				Flow:   phase*cfg.Flows + rng.Intn(cfg.Flows),
			})
		}
	}
	// Sort within ticks: arrivals were generated tick-ordered with random
	// intra-tick offsets; a stable pass keeps global time order.
	sortPackets(pkts)
	return pkts
}

// samplePacketSize draws from the phase's size mixture. The dominant mode
// carries 85% of the traffic BYTES (not packets): the probability of
// drawing the dominant size is weighted by its size so that small-packet
// phases are genuinely dominated by small packets.
func samplePacketSize(rng *rand.Rand, phase int) int64 {
	dom := sizeModes[phase%len(sizeModes)]
	const bgMean = 550.0 // approximate mean of the background mixture
	wDom := 0.85 / float64(dom)
	wBg := 0.15 / bgMean
	if rng.Float64() < wDom/(wDom+wBg) {
		return dom
	}
	if rng.Float64() < 0.75 {
		return sizeModes[rng.Intn(len(sizeModes))]
	}
	return 20 + rng.Int63n(1480)
}

// expo draws a truncated-exponential duration: exponential shape with the
// tail capped at 1.5x the mean, so burst intensity varies without a
// single extreme burst dominating a whole trace (every phase then reaches
// a comparable backlog peak, as the paper's per-phase analysis assumes).
func expo(rng *rand.Rand, mean float64) float64 {
	d := rng.ExpFloat64() * mean
	if d > 1.3*mean {
		d = 1.3 * mean
	}
	if d < 0.7*mean {
		d = 0.7 * mean
	}
	return d
}

func sortPackets(pkts []Packet) {
	// Packets are near-sorted (per-tick); insertion sort is O(n) here and
	// keeps the dependency footprint zero.
	for i := 1; i < len(pkts); i++ {
		p := pkts[i]
		j := i - 1
		for j >= 0 && pkts[j].TimeMs > p.TimeMs {
			pkts[j+1] = pkts[j]
			j--
		}
		pkts[j+1] = p
	}
}

// Stats summarizes a generated trace for tests and reports.
type Stats struct {
	Packets   int
	Bytes     int64
	MeanSize  float64
	Duration  float64 // ms
	RateMbps  float64 // achieved average rate
	SizeModes int     // distinct sizes observed
}

// Summarize computes the achieved statistics of a packet sequence.
func Summarize(pkts []Packet, cfg Config) Stats {
	cfg.defaults()
	s := Stats{Packets: len(pkts), Duration: Duration(cfg)}
	sizes := map[int64]bool{}
	for _, p := range pkts {
		s.Bytes += p.Size
		sizes[p.Size] = true
	}
	s.SizeModes = len(sizes)
	if len(pkts) > 0 {
		s.MeanSize = float64(s.Bytes) / float64(len(pkts))
	}
	if s.Duration > 0 {
		s.RateMbps = float64(s.Bytes) * 8 / (s.Duration / 1000) / 1e6
	}
	return s
}
