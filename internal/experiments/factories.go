package experiments

import (
	"math/rand"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/core"
)

// PI2Factory builds the paper's PI2 AQM (Table 1 defaults scaled to the
// given target; gains α = 5/16, β = 50/16, T = 32 ms, k = 2).
func PI2Factory(target time.Duration) AQMFactory {
	return func(rng *rand.Rand) aqm.AQM {
		return core.New(core.Config{Target: target}, rng)
	}
}

// PIEFactory builds the full Linux-style PIE baseline with the paper's
// reworked ECN overload rule (never drop ECN-capable packets; cap p at 25 %)
// so coexistence results have no discontinuity, exactly as in Section 5.
func PIEFactory(target time.Duration) AQMFactory {
	return func(rng *rand.Rand) aqm.AQM {
		cfg := aqm.DefaultPIEConfig()
		cfg.Target = target
		cfg.ECN = true
		cfg.ReworkedECN = true
		return aqm.NewPIE(cfg, rng)
	}
}

// BarePIEFactory builds PIE with every extra heuristic disabled (the
// paper's bare-PIE control).
func BarePIEFactory(target time.Duration) AQMFactory {
	return func(rng *rand.Rand) aqm.AQM {
		cfg := aqm.BarePIEConfig()
		cfg.Target = target
		cfg.ECN = true
		cfg.ReworkedECN = true
		return aqm.NewPIE(cfg, rng)
	}
}

// PIFactory builds the plain non-tuned PI AQM — the 'pi' curve of Figure 6
// (PIE base gains applied directly, no scaling, no squaring).
func PIFactory(target time.Duration) AQMFactory {
	return func(rng *rand.Rand) aqm.AQM {
		return aqm.NewPI(aqm.PIConfig{Alpha: 0.125, Beta: 1.25, Target: target}, rng)
	}
}

// setBottleneck points a scenario at the named discipline: "dualpi2" is
// the DualPI2 dual-queue bottleneck, any other name a FactoryByName AQM on
// the default link. It panics on an unknown name.
func setBottleneck(sc *Scenario, name string, target time.Duration) {
	if name == "dualpi2" {
		sc.NewBottleneck = DualPI2Bottleneck(core.DualConfig{Config: core.Config{Target: target}}, nil)
		return
	}
	factory, ok := FactoryByName(name, target)
	if !ok {
		panic("unknown AQM " + name)
	}
	sc.NewAQM = factory
}

// FactoryByName resolves an AQM name used on CLI flags and sweep labels.
// Recognized: pi2, pie, bare-pie, pi, red, codel, taildrop.
func FactoryByName(name string, target time.Duration) (AQMFactory, bool) {
	switch name {
	case "pi2":
		return PI2Factory(target), true
	case "pie":
		return PIEFactory(target), true
	case "bare-pie":
		return BarePIEFactory(target), true
	case "pi":
		return PIFactory(target), true
	case "red":
		return func(rng *rand.Rand) aqm.AQM {
			return aqm.NewRED(aqm.REDConfig{ECN: true}, rng)
		}, true
	case "codel":
		return func(rng *rand.Rand) aqm.AQM {
			return aqm.NewCoDel(aqm.CoDelConfig{ECN: true})
		}, true
	case "taildrop":
		return func(rng *rand.Rand) aqm.AQM { return aqm.TailDrop{} }, true
	}
	return nil, false
}
