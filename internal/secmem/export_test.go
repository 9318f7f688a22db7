package secmem

// Mechanisms names the mechanisms m was built with, in a fixed order, for
// the external table test over the scheme presets (package scheme imports
// secmem, so that test cannot live in package secmem).
func Mechanisms(m *MEE) []string {
	var out []string
	for _, mech := range []struct {
		name    string
		present bool
	}{
		{"caches", m.ctrCache != nil && m.macCache != nil && m.bmtCache != nil},
		{"roPred", m.roPred != nil},
		{"stPred", m.stPred != nil},
		{"mats", m.mats != nil},
		{"oracles", m.roOracle != nil && m.stOracle != nil},
		{"roAcc", m.roAcc != nil},
		{"stAcc", m.stAcc != nil},
	} {
		if mech.present {
			out = append(out, mech.name)
		}
	}
	return out
}
