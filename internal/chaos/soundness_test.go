package chaos

import (
	"math/rand"
	"testing"
)

// decisionInput is one set of WaveModel.Behavior's inputs.
type decisionInput struct {
	seed int64
	wave int
	ip   [4]byte
	port int
}

// behaviorInputs names each input of WaveModel.Behavior, the bytes of
// behaviorKey it fills, and a perturbation that changes it and nothing
// else, given a nonzero random r.
var behaviorInputs = []struct {
	name    string
	lo, hi  int
	perturb func(in *decisionInput, r uint64)
}{
	{"seed", 0, 8, func(in *decisionInput, r uint64) { in.seed ^= int64(r) }},
	{"wave", 8, 12, func(in *decisionInput, r uint64) { in.wave = (in.wave + 1 + int(r%7)) % 8 }},
	{"address byte 0", 12, 13, func(in *decisionInput, r uint64) { in.ip[0] ^= nonzeroByte(r) }},
	{"address byte 1", 13, 14, func(in *decisionInput, r uint64) { in.ip[1] ^= nonzeroByte(r) }},
	{"address byte 2", 14, 15, func(in *decisionInput, r uint64) { in.ip[2] ^= nonzeroByte(r) }},
	{"address byte 3", 15, 16, func(in *decisionInput, r uint64) { in.ip[3] ^= nonzeroByte(r) }},
	{"port high byte", 16, 17, func(in *decisionInput, r uint64) { in.port ^= int(nonzeroByte(r)) << 8 }},
	{"port low byte", 17, 18, func(in *decisionInput, r uint64) { in.port ^= int(nonzeroByte(r)) }},
}

func nonzeroByte(r uint64) byte { return byte(1 + r%255) }

// insensitiveInputs perturbs each input of decide on 10,000 hosts
// under mixed's model and returns the inputs whose perturbation changed
// fewer than half the decisions. Were each perturbed decision an
// independent draw, about 57 % would change (a host is spared with
// probability 0.65, and two chaotic draws agree one time in 13).
func insensitiveInputs(t *testing.T, decide func(m Model, in decisionInput) Behavior) map[string]float64 {
	t.Helper()
	m, err := ModelForProfile("mixed", 0)
	if err != nil {
		t.Fatal(err)
	}
	const hosts = 10000
	rng := rand.New(rand.NewSource(44))
	changed := make([]int, len(behaviorInputs))
	for h := 0; h < hosts; h++ {
		base := decisionInput{seed: rng.Int63() - rng.Int63(), wave: rng.Intn(8), port: rng.Intn(1 << 16)}
		rng.Read(base.ip[:])
		was := decide(m, base)
		for i, input := range behaviorInputs {
			in := base
			input.perturb(&in, rng.Uint64()|1)
			if decide(m, in) != was {
				changed[i]++
			}
		}
	}
	weak := map[string]float64{}
	for i, input := range behaviorInputs {
		if share := float64(changed[i]) / hosts; share < 0.5 {
			weak[input.name] = share
		}
	}
	return weak
}

// TestBehaviorDependsOnEveryInput is the soundness argument of the chaos
// decision, checked: a host's behavior is a function of (seed, wave,
// address, port) and of nothing else, so a decision that ignored an
// input would replay one host's chaos on another, or one wave's on the
// next. Perturbing any one input moves the decision as an independent
// draw would.
func TestBehaviorDependsOnEveryInput(t *testing.T) {
	weak := insensitiveInputs(t, func(m Model, in decisionInput) Behavior {
		m.Seed = in.seed
		return m.ForWave(in.wave).Behavior(in.ip, in.port)
	})
	for name, share := range weak {
		t.Errorf("perturbing the %s changes %.1f%% of chaos decisions: the decision hash does not depend on it", name, 100*share)
	}
}

// TestBehaviorSoundnessCheckSelfTest: the check above fails, naming
// exactly the dropped input, for a decision that hashes every input but
// one.
func TestBehaviorSoundnessCheckSelfTest(t *testing.T) {
	for _, dropped := range behaviorInputs {
		weak := insensitiveInputs(t, func(m Model, in decisionInput) Behavior {
			key := behaviorKey(in.seed, in.wave, in.ip, in.port)
			kept := append(append([]byte{}, key[:dropped.lo]...), key[dropped.hi:]...)
			return m.decide(hashKey(kept))
		})
		if _, ok := weak[dropped.name]; !ok || len(weak) != 1 {
			t.Errorf("a decision without the %s: the check flags %v, want exactly that input", dropped.name, weak)
		}
	}
}
