// Package feataug is the paper's primary contribution: the FeatAug framework
// (Figure 2) with its two components — SQL Query Generation (Section V: TPE
// over the query pool, warm-started from a low-cost proxy task) and Query
// Template Identification (Section VI: beam search over the attribute-subset
// tree with the low-cost-proxy and promising-template-prediction
// optimisations).
package feataug

import (
	"fmt"

	"repro/internal/hpo"
	"repro/internal/pipeline"
	"repro/internal/query"
)

// Config tunes the framework. Zero values select paper-faithful defaults
// scaled to laptop budgets; the paper's own budgets are noted inline.
type Config struct {
	Seed int64

	// --- SQL Query Generation (Section V) ---

	// WarmupIters is the number of proxy-task TPE iterations in the warm-up
	// phase (paper: 200).
	WarmupIters int
	// WarmupTopK is the number of proxy-best queries evaluated for real to
	// prime the second TPE round (paper: 50).
	WarmupTopK int
	// GenIters is the number of real-evaluation TPE iterations in the
	// query-generation phase (paper: 40).
	GenIters int
	// NoWarmupIters is the plain-TPE budget used when DisableWarmup is set.
	// The paper's NoWU ablation runs 50+40=90 iterations so total real
	// evaluations match the warm-started run.
	NoWarmupIters int
	// DisableWarmup drops the warm-up phase (Table VII "NoWU").
	DisableWarmup bool
	// Proxy selects the low-cost proxy (Table VIII; default MI).
	Proxy pipeline.ProxyKind

	// --- Query Template Identification (Section VI) ---

	// NumTemplates is n, the number of promising templates returned
	// (paper: 8).
	NumTemplates int
	// QueriesPerTemplate is the number of queries extracted per template
	// (paper: 5; 8 × 5 = 40 features).
	QueriesPerTemplate int
	// BeamWidth is β (paper figure uses 1; we default 2).
	BeamWidth int
	// MaxDepth is the maximum WHERE-clause attribute-combination size
	// (paper figure: 4).
	MaxDepth int
	// TemplateProxyIters is the short proxy-TPE budget used to estimate one
	// template's effectiveness during QTI.
	TemplateProxyIters int
	// DisableQTI skips template identification and uses the single template
	// built from all provided attributes (Table VII "NoQTI").
	DisableQTI bool
	// DisableProxyOpt turns off Optimisation 1: template effectiveness is
	// estimated with real model evaluations instead of the proxy (Fig 5
	// "QTI w/o Opt1,2" when combined with DisablePredictor).
	DisableProxyOpt bool
	// DisablePredictor turns off Optimisation 2: every node in a layer is
	// proxy-evaluated instead of only the predictor's top-β (Fig 5
	// "QTI w/o Opt2").
	DisablePredictor bool

	// Space discretisation and TPE knobs.
	Space query.SpaceOptions
	TPE   hpo.TPEOptions

	// SeedQueries are user-suggested queries evaluated up-front and used to
	// prime the generation surrogate — a practitioner's domain knowledge
	// injected via Space.Encode. Queries that do not fit the current
	// template are skipped silently.
	SeedQueries []query.Query

	// Logf, when non-nil, receives progress lines (template identified,
	// queries generated, phase timings). Printf-style.
	Logf func(format string, args ...interface{})

	// Progress, when non-nil, receives coarse stage-level progress callbacks
	// from Run: (stage, done, total) with done in [0, total]. Set it through
	// WithProgress. Callbacks run synchronously on the search goroutine, so
	// they must be fast and must not block.
	Progress func(stage Stage, done, total int)

	// Stats, when non-nil, receives the run's final executor counters after
	// materialisation. Set it through WithStats. Single-table Fit delivers
	// one callback; FitMulti merges every source's counters and delivers the
	// sum once.
	Stats func(query.ExecutorStats)

	// suppressStatsLog drops the per-run executor-stats log line. FitMulti
	// sets it on every per-source run and logs one merged stats line for the
	// set instead of k interleaved ones.
	suppressStatsLog bool
}

// Stage identifies one phase of a FeatAug run for progress reporting.
type Stage int

// Run stages, in execution order.
const (
	// StageQTI is query template identification (Section VI).
	StageQTI Stage = iota
	// StageWarmup is the proxy-task TPE warm-up of one template (Section V.C).
	StageWarmup
	// StageGenerate is real-evaluation query generation, one unit per
	// template.
	StageGenerate
	// StageMaterialize is the final feature materialisation batch.
	StageMaterialize
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageQTI:
		return "qti"
	case StageWarmup:
		return "warmup"
	case StageGenerate:
		return "generate"
	case StageMaterialize:
		return "materialize"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// logf forwards to Logf when set.
func (c Config) logf(format string, args ...interface{}) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// progress forwards to Progress when set.
func (c Config) progress(stage Stage, done, total int) {
	if c.Progress != nil {
		c.Progress(stage, done, total)
	}
}

// stats forwards to Stats when set.
func (c Config) stats(s query.ExecutorStats) {
	if c.Stats != nil {
		c.Stats(s)
	}
}

// Defaults for Config, scaled so a full run completes in seconds.
const (
	DefaultWarmupIters        = 60
	DefaultWarmupTopK         = 12
	DefaultGenIters           = 15
	DefaultNumTemplates       = 8
	DefaultQueriesPerTemplate = 5
	DefaultBeamWidth          = 2
	DefaultMaxDepth           = 3
	DefaultTemplateProxyIters = 20
)

func (c Config) normalized() Config {
	if c.WarmupIters <= 0 {
		c.WarmupIters = DefaultWarmupIters
	}
	if c.WarmupTopK <= 0 {
		c.WarmupTopK = DefaultWarmupTopK
	}
	if c.GenIters <= 0 {
		c.GenIters = DefaultGenIters
	}
	if c.NoWarmupIters <= 0 {
		// Match the paper's accounting: the no-warm-up run gets the
		// warm-up's real-evaluation budget on top of the generation budget.
		c.NoWarmupIters = c.WarmupTopK + c.GenIters
	}
	if c.NumTemplates <= 0 {
		c.NumTemplates = DefaultNumTemplates
	}
	if c.QueriesPerTemplate <= 0 {
		c.QueriesPerTemplate = DefaultQueriesPerTemplate
	}
	if c.BeamWidth <= 0 {
		c.BeamWidth = DefaultBeamWidth
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = DefaultMaxDepth
	}
	if c.TemplateProxyIters <= 0 {
		c.TemplateProxyIters = DefaultTemplateProxyIters
	}
	return c
}
