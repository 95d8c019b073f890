// Package adaptive implements the study's sequential early-stopping
// statistics engine: a group-sequential stopping rule that ends a
// campaign cell once every outcome-rate Wilson 95% interval is narrower
// than a target ε, plus the stratified budget-reallocation planner that
// moves the attempts saved by early-stopped cells to the cells with the
// widest remaining intervals.
//
// Everything here is a pure function of outcome counts: no wall clock,
// no randomness, no goroutine interleaving. The stopping decision for a
// cell depends only on the prefix of its attempt records (evaluated at a
// fixed attempt-count cadence), and the reallocation plan depends only
// on the round-1 stop states of all cells taken in canonical order.
// That purity is what lets checkpoints, shard merges, and fleet leases
// reproduce an adaptive study byte for byte (docs/adaptive.md).
package adaptive

import (
	"fmt"
	"strconv"
	"strings"

	"hlfi/internal/stats"
)

// Defaults for the -adaptive flag ("on" uses all three).
const (
	DefaultEps   = 0.02
	DefaultMinN  = 200
	DefaultCheck = 64
)

// Config is one adaptive-sampling policy. A nil *Config is the disabled
// state (fixed-n campaigns, byte-identical to a build without this
// package).
type Config struct {
	// Eps is the target precision: a cell stops once every outcome-rate
	// Wilson 95% half-width is <= Eps.
	Eps float64
	// MinN is the minimum-activation floor: the rule never fires before
	// MinN activated injections, whatever the intervals say (guards the
	// small-sample regime where Wilson intervals are narrow for
	// degenerate counts).
	MinN int
	// Check is the group-sequential cadence: the rule is evaluated only
	// when the attempt count is a multiple of Check. Fewer looks mean
	// less sequential-peeking undercoverage and a decision sequence that
	// is trivially a function of the attempt-record prefix.
	Check int
}

// Parse reads the -adaptive flag form: "" or "off" disables (nil
// config), "on" enables the defaults, and a comma-separated key=value
// list ("eps=0.02,min=200,check=64") overrides them individually.
func Parse(s string) (*Config, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "off" {
		return nil, nil
	}
	cfg := &Config{Eps: DefaultEps, MinN: DefaultMinN, Check: DefaultCheck}
	if s == "on" {
		return cfg, nil
	}
	for _, tok := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(tok), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("adaptive spec %q: want key=value tokens (eps=0.02,min=200,check=64), got %q", s, tok)
		}
		switch kv[0] {
		case "eps":
			v, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return nil, fmt.Errorf("adaptive spec %q: bad eps: %v", s, err)
			}
			cfg.Eps = v
		case "min":
			v, err := strconv.Atoi(kv[1])
			if err != nil {
				return nil, fmt.Errorf("adaptive spec %q: bad min: %v", s, err)
			}
			cfg.MinN = v
		case "check":
			v, err := strconv.Atoi(kv[1])
			if err != nil {
				return nil, fmt.Errorf("adaptive spec %q: bad check: %v", s, err)
			}
			cfg.Check = v
		default:
			return nil, fmt.Errorf("adaptive spec %q: unknown key %q (want eps, min, check)", s, kv[0])
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// ParseSignature reads a signature back into a config: the inverse of
// Signature, used when a checkpoint header is the source of truth (a
// -merge adopts the shard headers' adaptive config the same way it
// adopts n and seed). "off" and "" load as nil.
func ParseSignature(sig string) (*Config, error) {
	return Parse(sig)
}

// Validate checks the config ranges.
func (c *Config) Validate() error {
	if !(c.Eps > 0 && c.Eps < 1) {
		return fmt.Errorf("adaptive: eps %v out of range (0, 1)", c.Eps)
	}
	if c.MinN < 1 {
		return fmt.Errorf("adaptive: min %d must be >= 1", c.MinN)
	}
	if c.Check < 1 {
		return fmt.Errorf("adaptive: check %d must be >= 1", c.Check)
	}
	return nil
}

// Signature is the canonical string form pinned into checkpoint, shard,
// and fleet headers and hashed into warehouse keys (nil config = "off").
// Unlike the replay and compiled-engine signatures, which the same
// headers carry as provenance only, it is study identity: resuming or
// merging across different adaptive configs would stitch together
// records no single run could have produced.
func (c *Config) Signature() string {
	if c == nil {
		return "off"
	}
	return fmt.Sprintf("eps=%s,min=%d,check=%d",
		strconv.FormatFloat(c.Eps, 'g', -1, 64), c.MinN, c.Check)
}

// Counts is the outcome tally of one cell's attempt-record prefix — the
// entire state the stopping rule is allowed to see.
type Counts struct {
	Benign       int
	SDC          int
	Crash        int
	Hang         int
	NotActivated int
	SimFaults    int
}

// Attempts is the length of the prefix the counts summarize (every
// attempt lands in exactly one bucket).
func (c Counts) Attempts() int {
	return c.Benign + c.SDC + c.Crash + c.Hang + c.NotActivated + c.SimFaults
}

// Activated is the number of trials behind the outcome proportions.
func (c Counts) Activated() int { return c.Benign + c.SDC + c.Crash + c.Hang }

// proportions returns the four outcome rates over activated trials.
func (c Counts) proportions() [4]stats.Proportion {
	n := c.Activated()
	return [4]stats.Proportion{
		{Successes: c.Benign, Trials: n},
		{Successes: c.SDC, Trials: n},
		{Successes: c.Crash, Trials: n},
		{Successes: c.Hang, Trials: n},
	}
}

// MaxHalfWidth is the widest Wilson 95% half-width among the four
// outcome-rate intervals (0 when nothing has activated).
func (c Counts) MaxHalfWidth() float64 {
	max := 0.0
	for _, p := range c.proportions() {
		lo, hi := p.WilsonCI()
		if hw := (hi - lo) / 2; hw > max {
			max = hw
		}
	}
	return max
}

// Converged reports whether the precision target is met: at least MinN
// activated injections and every outcome-rate Wilson half-width <= Eps.
// This is the cadence-free predicate; the stopping rule is ShouldStop.
func (c *Config) Converged(counts Counts) bool {
	if counts.Activated() < c.MinN {
		return false
	}
	return counts.MaxHalfWidth() <= c.Eps
}

// ShouldStop is the group-sequential stopping decision after one more
// attempt has been recorded: true only at Check-cadence attempt counts
// where the precision target is met. It is a pure function of the
// counts (equivalently, of the attempt-record prefix they summarize) —
// the property FuzzAdaptiveDecision fuzzes and the cross-mode
// determinism oracle gates.
func (c *Config) ShouldStop(counts Counts) bool {
	n := counts.Attempts()
	if n == 0 || n%c.Check != 0 {
		return false
	}
	return c.Converged(counts)
}

// Outcome is the attempt-record alphabet of the decision function, as
// seen by the tracker and the test harnesses.
type Outcome uint8

// The six ways one attempt can land.
const (
	OutcomeBenign Outcome = iota
	OutcomeSDC
	OutcomeCrash
	OutcomeHang
	OutcomeNotActivated
	OutcomeSimFault
	numOutcomes
)

// Note adds one attempt record to the counts.
func (c *Counts) Note(o Outcome) {
	switch o {
	case OutcomeBenign:
		c.Benign++
	case OutcomeSDC:
		c.SDC++
	case OutcomeCrash:
		c.Crash++
	case OutcomeHang:
		c.Hang++
	case OutcomeNotActivated:
		c.NotActivated++
	case OutcomeSimFault:
		c.SimFaults++
	}
}

// Tracker evaluates the stopping rule incrementally over a stream of
// attempt records. Once stopped it stays stopped (monotone), and its
// stop point equals Config.StopAt over the same prefix — the campaign
// loops use the same ShouldStop predicate, so all three agree.
type Tracker struct {
	cfg     *Config
	counts  Counts
	stopped bool
	stopN   int
}

// NewTracker builds a tracker for one cell.
func NewTracker(cfg *Config) *Tracker { return &Tracker{cfg: cfg, stopN: -1} }

// Note records one attempt and reports whether the cell is (now)
// stopped. Records arriving after the stop are ignored: the decision is
// monotone by construction.
func (t *Tracker) Note(o Outcome) bool {
	if t.stopped {
		return true
	}
	t.counts.Note(o)
	if t.cfg.ShouldStop(t.counts) {
		t.stopped = true
		t.stopN = t.counts.Attempts()
	}
	return t.stopped
}

// Stopped reports whether the rule has fired.
func (t *Tracker) Stopped() bool { return t.stopped }

// StopN is the attempt count at which the rule fired (-1 while
// running).
func (t *Tracker) StopN() int { return t.stopN }

// Counts returns the tally of the counted prefix (records after the
// stop are excluded).
func (t *Tracker) Counts() Counts { return t.counts }

// StopAt replays a full attempt-record sequence through the stopping
// rule and returns the attempt count at which it first fires, or -1 if
// it never does. It is the pure reference the tracker and the fuzz
// target are checked against: StopAt(seq[:k]) == -1 for every k below
// the stop, and StopAt(seq[:StopAt(seq)]) == StopAt(seq) (the decision
// at n depends only on records[0:n]).
func (c *Config) StopAt(seq []Outcome) int {
	var counts Counts
	for _, o := range seq {
		counts.Note(o)
		if c.ShouldStop(counts) {
			return counts.Attempts()
		}
	}
	return -1
}
