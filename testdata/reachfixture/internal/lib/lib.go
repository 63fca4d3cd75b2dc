// Package lib is a throwaway module the reachability gate's self-test
// (TestReachabilityFixture at the repository root) is pointed at.
package lib

// Config has one option main sets and the engine reads, one nobody sets,
// and one main sets and nothing reads.
type Config struct {
	Set       int
	Unset     int
	WriteOnly bool
}

func (c *Config) applyDefaults() {
	if c.Unset == 0 {
		c.Unset = 7
	}
}

// Runner is how main reaches engine.Run: only through this interface.
type Runner interface{ Run() int }

// gear is used only as a field type.
type gear struct{ teeth int }

type engine struct {
	cfg  Config
	gear gear
}

// New builds the engine main runs.
func New(cfg Config) *engine {
	cfg.applyDefaults()
	return &engine{cfg: cfg}
}

// Run is called through Runner alone.
func (e *engine) Run() int { return e.cfg.Set*e.cfg.Unset + e.gear.teeth }

// OnlyTested has no caller outside lib_test.go.
func OnlyTested() int { return 1 }

// Kept has no caller either; the self-test allows it by name.
func Kept() int { return 2 }
