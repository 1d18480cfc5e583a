package mcaverify

import (
	"context"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mca"
	"repro/internal/mcamodel"
	"repro/internal/netsim"
	"repro/internal/vnm"
)

// ---- Protocol layer (internal/mca) ----

// Core protocol types.
type (
	// Agent is one MCA participant.
	Agent = mca.Agent
	// AgentConfig constructs an Agent.
	AgentConfig = mca.Config
	// AgentID identifies an agent; ties break toward lower IDs.
	AgentID = mca.AgentID
	// ItemID identifies an item on auction.
	ItemID = mca.ItemID
	// BidInfo is one view entry: bid, winner, generation time.
	BidInfo = mca.BidInfo
	// Message is an MCA bid message.
	Message = mca.Message
	// Policy instantiates the protocol's variant aspects (p_T, p_u, p_RO,
	// Remark 1).
	Policy = mca.Policy
	// Utility is the bidding utility function interface (p_u).
	Utility = mca.Utility
	// RebidMode instantiates the Remark 1 condition.
	RebidMode = mca.RebidMode
	// Outcome summarizes a synchronous protocol run.
	Outcome = mca.Outcome
	// SyncRunner drives agents in synchronous rounds.
	SyncRunner = mca.SyncRunner
	// Allocation maps items to winners.
	Allocation = mca.Allocation
)

// Utility implementations.
type (
	// SubmodularResidual is the residual-capacity sub-modular utility.
	SubmodularResidual = mca.SubmodularResidual
	// NonSubmodularSynergy violates Definition 2 (Result 1's culprit).
	NonSubmodularSynergy = mca.NonSubmodularSynergy
	// FlatUtility bids constant base valuations.
	FlatUtility = mca.FlatUtility
	// EscalatingUtility is the Result 2 rebidding attacker's generator.
	EscalatingUtility = mca.EscalatingUtility
)

// Rebid modes.
const (
	// RebidOnChange is the paper's MCA semantics for Remark 1.
	RebidOnChange = mca.RebidOnChange
	// RebidNever blocks outbid items forever.
	RebidNever = mca.RebidNever
	// RebidAlways removes the Remark 1 condition (the attack).
	RebidAlways = mca.RebidAlways
)

// NoAgent is the NULL winner.
const NoAgent = mca.NoAgent

// NewAgent validates a configuration and builds an agent.
func NewAgent(cfg AgentConfig) (*Agent, error) { return mca.NewAgent(cfg) }

// Detector implements the rebid-attack countermeasure the paper
// sketches (footnote 7): it observes received messages and flags
// neighbors that violate the Remark 1 no-rebid condition.
type Detector = mca.Detector

// DetectorViolation is one piece of rebid-attack evidence.
type DetectorViolation = mca.Violation

// NewDetector creates a detector for an agent observing its first-hop
// neighborhood.
func NewDetector(owner AgentID, items int) *Detector { return mca.NewDetector(owner, items) }

// NewSyncRunner wires agents to an agent network for synchronous rounds.
func NewSyncRunner(agents []*Agent, g *Graph) (*SyncRunner, error) {
	return mca.NewSyncRunner(agents, g)
}

// MessageBound returns the paper's D·|J| consensus message bound.
func MessageBound(g *Graph, items int) int { return mca.MessageBound(g, items) }

// ---- Agent network topologies (internal/graph) ----

// Graph is the agent/substrate network type.
type Graph = graph.Graph

// LineGraph returns the n-node path topology.
func LineGraph(n int) *Graph { return graph.Line(n) }

// RingGraph returns the n-node cycle topology.
func RingGraph(n int) *Graph { return graph.Ring(n) }

// StarGraph returns the n-node star topology.
func StarGraph(n int) *Graph { return graph.Star(n) }

// CompleteGraph returns the n-node complete topology.
func CompleteGraph(n int) *Graph { return graph.Complete(n) }

// RandomConnectedGraph returns a seeded random connected topology.
func RandomConnectedGraph(n int, p float64, seed int64) *Graph {
	return graph.RandomConnected(n, p, seed)
}

// ---- Verification layer (internal/explore) ----

// Verification types.
type (
	// CheckOptions tunes the bounded model checker.
	CheckOptions = explore.Options
	// Verdict is a check outcome with counterexample trace.
	Verdict = explore.Verdict
	// ViolationKind classifies counterexamples.
	ViolationKind = explore.ViolationKind
)

// Violation kinds.
const (
	// ViolationNone means the consensus property held.
	ViolationNone = explore.ViolationNone
	// ViolationOscillation is a reachable protocol cycle (Fig. 2).
	ViolationOscillation = explore.ViolationOscillation
	// ViolationBoundExceeded is a path exceeding the val message budget.
	ViolationBoundExceeded = explore.ViolationBoundExceeded
	// ViolationDisagreement is quiescence without agreement.
	ViolationDisagreement = explore.ViolationDisagreement
	// ViolationConflict is an item held by two agents.
	ViolationConflict = explore.ViolationConflict
)

// ---- Engine layer (internal/engine) ----

// Engine layer types: one Scenario, many checkers, one Result shape.
type (
	// Scenario describes one verification scenario: agents (as
	// rebuildable specs), topology, network semantics and fault model,
	// property bounds, and optionally a bounded relational model for
	// the SAT backends.
	Scenario = engine.Scenario
	// Result is the unified verdict every engine returns.
	Result = engine.Result
	// ResultStatus classifies a Result.
	ResultStatus = engine.Status
	// Engine checks a Scenario one way; implementations are small
	// copyable configuration values.
	Engine = engine.Engine
	// ExplicitEngine is the exhaustive explicit-state backend, the
	// serial DFS, with checkpoint/resume (VerifyResumable).
	ExplicitEngine = engine.Explicit
	// SATEngine is the relational/SAT backend: one serial solver
	// (Workers 0, incremental across a sweep's assertion variants) or a
	// race of diversified solvers (Workers ≠ 0).
	SATEngine = engine.SAT
	// SimulationEngine samples seeded executions under network fault
	// models.
	SimulationEngine = engine.Simulation
	// AutoEngine picks the natural backend per scenario.
	AutoEngine = engine.Auto
	// NetworkFaults is the adversarial network model: per-edge drop
	// probability, delivery delay, partitions.
	NetworkFaults = netsim.Faults
	// Runner sweeps scenario sets over a worker pool.
	Runner = engine.Runner
	// RunnerOptions configures a Runner.
	RunnerOptions = engine.RunnerOptions
	// SweepSummary aggregates a batch of results deterministically.
	SweepSummary = engine.Summary
)

// Result statuses.
const (
	// ResultHolds: the property was verified.
	ResultHolds = engine.StatusHolds
	// ResultViolated: a counterexample was found.
	ResultViolated = engine.StatusViolated
	// ResultInconclusive: cancelled or out of budget before an answer.
	ResultInconclusive = engine.StatusInconclusive
	// ResultError: the scenario could not be run by the engine.
	ResultError = engine.StatusError
)

// Verify checks one scenario on the given engine (nil selects the
// natural backend automatically), honouring ctx cancellation and
// deadlines — the unified entry point over every checker in the
// library.
func Verify(ctx context.Context, s Scenario, e Engine) Result {
	if e == nil {
		e = engine.Auto{}
	}
	return e.Verify(ctx, s)
}

// NewRunner builds a batch runner that streams results from a worker
// pool over scenario sets — policy sweeps, substrate sweeps, scale
// sweeps, and adversarial-network sweeps as one production workload.
func NewRunner(opts RunnerOptions) *Runner { return engine.NewRunner(opts) }

// VerifyAll runs every scenario on the runner's worker pool and returns
// the results indexed by scenario position plus a deterministic
// aggregate summary.
func VerifyAll(ctx context.Context, scenarios []Scenario, opts RunnerOptions) ([]Result, SweepSummary) {
	return engine.NewRunner(opts).Run(ctx, scenarios)
}

// ---- Scenario codec, sweep files, result cache ----

// ScenarioSchemaVersion is the version tag of the scenario/result/sweep
// JSON schema (docs/SCENARIO_FORMAT.md).
const ScenarioSchemaVersion = engine.SchemaVersion

// EncodeScenario renders a scenario as canonical versioned JSON —
// deterministic bytes suitable for files, the wire, and content
// addressing. Every scenario that Scenario.Validate accepts encodes.
func EncodeScenario(s *Scenario) ([]byte, error) { return engine.EncodeScenario(s) }

// DecodeScenario strictly parses a scenario document: unknown fields,
// wrong versions, and unknown enum tokens are errors.
func DecodeScenario(data []byte) (Scenario, error) { return engine.DecodeScenario(data) }

// ExpandSweep expands a sweep document — a base scenario plus axes of
// named variants — into the full cartesian scenario set.
func ExpandSweep(data []byte) ([]Scenario, error) { return engine.ExpandSweep(data) }

// Result cache types (internal/cache).
type (
	// ResultCache is the pluggable verification cache consulted by a
	// Runner (RunnerOptions.Cache).
	ResultCache = engine.ResultCache
	// VerificationCache is the standard content-addressed result cache:
	// in-memory LRU with optional on-disk persistence.
	VerificationCache = cache.Cache
	// CacheOptions configures a VerificationCache.
	CacheOptions = cache.Options
	// CacheStats snapshots cache effectiveness counters.
	CacheStats = cache.Stats
)

// NewCache builds a verification result cache.
func NewCache(o CacheOptions) (*VerificationCache, error) { return cache.New(o) }

// ---- Scenario generation, shrinking, differential fuzzing (internal/gen) ----

// Fuzzing layer types.
type (
	// FuzzProfile tunes the seeded scenario generator: agent-count and
	// topology distributions, policy and utility mixes, network fault
	// ranges, exploration-bound ranges, and the probability of attaching
	// a relational model. Unset structural fields take defaults;
	// probabilities are literal (zero means never).
	FuzzProfile = gen.Profile
	// FuzzIntRange is an inclusive integer interval sampled uniformly.
	FuzzIntRange = gen.IntRange
	// FuzzFloatRange is a float interval sampled uniformly.
	FuzzFloatRange = gen.FloatRange
	// DiffOptions configures the cross-engine differential oracle.
	DiffOptions = gen.DiffOptions
	// DiffResult is the oracle's verdict on one scenario: every engine
	// leg plus whether the verdicts are mutually consistent.
	DiffResult = gen.DiffResult
	// DiffLeg is one engine's verdict inside a DiffResult.
	DiffLeg = gen.Leg
	// DiffSummary aggregates an oracle sweep.
	DiffSummary = gen.DiffSummary
	// ShrinkOptions tunes the counterexample shrinker.
	ShrinkOptions = gen.ShrinkOptions
	// ShrinkStats counts the shrinker's work.
	ShrinkStats = gen.ShrinkStats
	// DiffClass is the comparability class of one oracle leg.
	DiffClass = gen.LegClass
)

// Oracle comparability classes.
const (
	// DiffClassDynamicExact: exhaustive convergence checkers (Explicit).
	DiffClassDynamicExact = gen.ClassDynamicExact
	// DiffClassDynamicSampling: seeded-schedule samplers (Simulation),
	// allowed to miss a violation but never to invent one.
	DiffClassDynamicSampling = gen.ClassDynamicSampling
	// DiffClassRelational: bounded relational-model checkers (SAT);
	// every encoding and strategy must agree exactly.
	DiffClassRelational = gen.ClassRelational
)

// DefaultFuzzProfile returns the generator's built-in workload mix
// (small scenarios over every topology, a third under network faults, a
// quarter carrying relational models).
func DefaultFuzzProfile() FuzzProfile { return gen.DefaultProfile() }

// Generate manufactures n scenarios from the profile, deterministically
// in (profile, seed): the same call returns byte-identical scenarios
// under the canonical codec, independent of corpus length or any later
// worker count.
func Generate(p FuzzProfile, seed int64, n int) ([]Scenario, error) {
	return gen.Generate(p, seed, n)
}

// ShrinkFailure minimizes a failing scenario while it keeps producing
// the same Status and violation kind on the engine (nil means the
// natural backend).
func ShrinkFailure(ctx context.Context, s Scenario, e Engine, opts ShrinkOptions) (Scenario, ShrinkStats, error) {
	return gen.ShrinkFailure(ctx, s, e, opts)
}

// DiffSweep runs the differential oracle over a scenario set on a
// worker pool; results are indexed by scenario position and identical
// at any worker count.
func DiffSweep(ctx context.Context, scenarios []Scenario, opts DiffOptions) ([]DiffResult, DiffSummary) {
	return gen.DiffSweep(ctx, scenarios, opts)
}

// Coverage-guided fuzzing types.
type (
	// StoreSignature is the quantized shape of one oracle leg's work —
	// the coverage coordinate derived from result counters that are
	// deterministic at any worker count.
	StoreSignature = gen.Signature
	// CoverageBucket is one coverage bucket: comparability class,
	// store signature, and verdict polarity.
	CoverageBucket = gen.Coverage
	// CoverageSet is the set of buckets a corpus has reached.
	CoverageSet = gen.CoverageSet
	// FuzzCoverageOptions configures the coverage-guided fuzzing loop.
	FuzzCoverageOptions = gen.CoverageOptions
	// FuzzCoverageResult is a coverage-guided run's corpus, bucket set,
	// round telemetry, and any oracle disagreements.
	FuzzCoverageResult = gen.CoverageResult
	// FuzzRoundStats is the per-round telemetry FuzzCoverage streams.
	FuzzRoundStats = gen.RoundStats
)

// FuzzCoverage runs the coverage-guided fuzzing loop: a blind seed
// round from the profile, then mutation rounds whose inputs are drawn
// from the corpus of scenarios that discovered new store-signature
// buckets. onRound (optional) streams each round's stats as the loop
// runs. The corpus is byte-identical for the same (profile, seed,
// rounds, per-round) at any oracle worker count.
func FuzzCoverage(ctx context.Context, opts FuzzCoverageOptions, onRound func(FuzzRoundStats)) (FuzzCoverageResult, error) {
	return gen.FuzzCoverage(ctx, opts, onRound)
}

// RunAsync simulates one seeded random asynchronous execution.
func RunAsync(agents []*Agent, g *Graph, seed int64, maxDeliveries int) netsim.AsyncOutcome {
	return netsim.RunAsync(agents, g, seed, maxDeliveries)
}

// ---- Bounded relational model (internal/mcamodel) ----

// Relational model types.
type (
	// ModelScope sizes the bounded relational MCA model.
	ModelScope = mcamodel.Scope
	// ModelEncoding is a built naive/optimized model.
	ModelEncoding = mcamodel.Encoding
	// ModelMeasurement is one row of the encoding-efficiency experiment.
	ModelMeasurement = mcamodel.Measurement
)

// PaperModelScope is the paper's efficiency-experiment scope (3 pnodes,
// 2 vnodes).
func PaperModelScope() ModelScope { return mcamodel.PaperScope() }

// BuildNaiveModel constructs the pre-optimization relational encoding.
func BuildNaiveModel(sc ModelScope) (*ModelEncoding, error) { return mcamodel.BuildNaive(sc) }

// BuildOptimizedModel constructs the optimized relational encoding.
func BuildOptimizedModel(sc ModelScope) (*ModelEncoding, error) { return mcamodel.BuildOptimized(sc) }

// MeasureModel reports the CNF translation size of an encoding.
func MeasureModel(e *ModelEncoding) ModelMeasurement { return mcamodel.MeasureTranslation(e) }

// ---- Case study (internal/vnm) ----

// Virtual network mapping types.
type (
	// PhysicalNetwork is the substrate network.
	PhysicalNetwork = vnm.PhysicalNetwork
	// PhysicalNode is a substrate node with CPU capacity.
	PhysicalNode = vnm.PhysicalNode
	// VirtualNetwork is an embedding request.
	VirtualNetwork = vnm.VirtualNetwork
	// VirtualNode is a requested node with CPU demand.
	VirtualNode = vnm.VirtualNode
	// VirtualLink is a requested link with bandwidth demand.
	VirtualLink = vnm.VirtualLink
	// VNMapping is a complete embedding.
	VNMapping = vnm.Mapping
	// EmbedOptions tunes the embedder.
	EmbedOptions = vnm.Options
	// Embedder runs MCA-based virtual network embedding.
	Embedder = vnm.Embedder
)

// NewEmbedder prepares an MCA-based embedder over a substrate.
func NewEmbedder(phys *PhysicalNetwork, opts EmbedOptions) (*Embedder, error) {
	return vnm.NewEmbedder(phys, opts)
}

// ValidateMapping checks an embedding against capacities and paths.
func ValidateMapping(phys *PhysicalNetwork, vnet *VirtualNetwork, m *VNMapping) error {
	return vnm.ValidateMapping(phys, vnet, m)
}
