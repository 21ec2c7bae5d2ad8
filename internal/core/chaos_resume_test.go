package core

import (
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// TestChaosCrashRecoveryByteIdentity: crash + resume under active fault
// injection must still produce the uninterrupted run's digest — the
// fault plan's decision stream has to survive the process boundary.
// Both engine variants serve's hard-kill restart test exercises are
// covered; the breaker is disabled as there (its cooldown is wall-clock,
// so trips are order-sensitive and inherently non-reproducible).
func TestChaosCrashRecoveryByteIdentity(t *testing.T) {
	variants := []struct {
		name   string
		remote bool
	}{
		{"pipeline", false},
		{"remote", true},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := recoveryConfig("", EnginePipeline)
			if v.remote {
				cfg.Engine = ""
				cfg.RemoteDB = true
			}
			cfg.FaultRate = 0.2
			cfg.Resilience = &fault.Policy{BreakerThreshold: 1.1}
			want := cleanDigest(t, cfg)
			for _, at := range []string{"1:B:5", "2:C:1"} {
				at := at
				t.Run(at, func(t *testing.T) {
					c := cfg
					c.WALDir = filepath.Join(t.TempDir(), "ckpt")
					got := crashAndRecover(t, c, at)
					if got != want {
						t.Fatalf("chaos recovery diverged at %s:\n  recovered %s\n  clean     %s", at, got, want)
					}
				})
			}
		})
	}
}
