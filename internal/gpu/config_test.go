package gpu

import (
	"math"
	"strings"
	"testing"
)

// TestValidateUpperBounds pins each dimension bound: a config at the bound
// passes Validate and one past it is rejected by the bound itself. Device
// memory is sized per row so the partition count always divides it.
func TestValidateUpperBounds(t *testing.T) {
	def := DefaultConfig()
	for _, d := range []struct {
		name     string
		max, def int
		set      func(*Config, int)
	}{
		{"SMs", maxSMs, def.SMs, func(c *Config, n int) { c.SMs = n }},
		{"WarpsPerSM", maxWarpsPerSM, def.WarpsPerSM, func(c *Config, n int) { c.WarpsPerSM = n }},
		{"Partitions", maxPartitions, def.Partitions, func(c *Config, n int) {
			c.Partitions, c.DeviceMemoryBytes = n, uint64(n)<<23
		}},
		{"L2BanksPerPartition", maxL2BanksPerPartition, def.L2BanksPerPartition, func(c *Config, n int) { c.L2BanksPerPartition = n }},
	} {
		if d.max < 8*d.def || d.max > math.MaxInt16 {
			t.Errorf("%s bound %d outside [8×default %d, MaxInt16]", d.name, d.max, 8*d.def)
		}
		at := DefaultConfig()
		d.set(&at, d.max)
		if err := at.Validate(); err != nil {
			t.Errorf("%s=%d (the bound) rejected: %v", d.name, d.max, err)
		}
		past := DefaultConfig()
		d.set(&past, d.max+1)
		if err := past.Validate(); err == nil || !strings.Contains(err.Error(), d.name+" must be in") {
			t.Errorf("%s=%d (bound+1): err %v, want the bound's error", d.name, d.max+1, err)
		}
	}
}
