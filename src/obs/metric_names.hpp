// Canonical registry of every metric, gauge, histogram, and span name the
// sgp library and tools emit — the single source of truth referenced by
// instrumentation sites, the tools' pre-registration lists, the
// docs/observability.md drift test, and the sgp-lint R3 metric-registry
// rule (a string literal passed to obs::counter/gauge/histogram/Span/
// ScopedTimer inside src/ or tools/ must appear here, so a typo can no
// longer fork a metric silently).
//
// Adding an instrument: add a constant AND a kAllNames entry, use the
// constant at the call site, and document it in docs/observability.md.
// Naming rules (docs/observability.md): lowercase dotted
// "subsystem.noun[.verb]"; duration histograms end in ".seconds".
// ScopedTimer(kX) automatically records into "<kX>.seconds" — those
// derived names are canonical by construction (see is_canonical_name).
#pragma once

#include <string_view>

namespace sgp::obs::names {

// --- counters ------------------------------------------------------------
inline constexpr std::string_view kEigenQlIterations = "eigen.ql_iterations";
inline constexpr std::string_view kEigenSolves = "eigen.solves";
inline constexpr std::string_view kFaultTrips = "fault.trips";
inline constexpr std::string_view kIoEdgesRead = "io.edges_read";
inline constexpr std::string_view kIoEdgesWritten = "io.edges_written";
inline constexpr std::string_view kIoLinesRead = "io.lines_read";
inline constexpr std::string_view kKmeansIterations = "kmeans.iterations";
inline constexpr std::string_view kKmeansReseeds = "kmeans.reseeds";
inline constexpr std::string_view kKmeansRuns = "kmeans.runs";
inline constexpr std::string_view kLanczosFailures = "lanczos.failures";
inline constexpr std::string_view kLanczosIterations = "lanczos.iterations";
inline constexpr std::string_view kLanczosRestarts = "lanczos.restarts";
inline constexpr std::string_view kLanczosSolves = "lanczos.solves";
inline constexpr std::string_view kLedgerAppendAttempts =
    "ledger.append_attempts";
inline constexpr std::string_view kLedgerAppends = "ledger.appends";
inline constexpr std::string_view kLedgerCrcFailures = "ledger.crc_failures";
inline constexpr std::string_view kLedgerRecoveredRecords =
    "ledger.recovered_records";
inline constexpr std::string_view kLedgerRecoveries = "ledger.recoveries";
inline constexpr std::string_view kLinalgFusedTiles = "linalg.fused_tiles";
inline constexpr std::string_view kMechanismReleases = "mechanism.releases";
inline constexpr std::string_view kMechanismSyntheticEdges =
    "mechanism.synthetic_edges";
inline constexpr std::string_view kObsEvents = "obs.events";
inline constexpr std::string_view kProcSamples = "proc.samples";
inline constexpr std::string_view kPublishCells = "publish.cells";
inline constexpr std::string_view kPublishEmbeds = "publish.embeds";
inline constexpr std::string_view kPublishLeasesReclaimed =
    "publish.leases_reclaimed";
inline constexpr std::string_view kPublishReleases = "publish.releases";
inline constexpr std::string_view kPublishShards = "publish.shards";
inline constexpr std::string_view kPublishShardsResumed =
    "publish.shards_resumed";
inline constexpr std::string_view kRetryAttempts = "retry.attempts";
inline constexpr std::string_view kSessionBudgetRefusals =
    "session.budget_refusals";
inline constexpr std::string_view kSessionPublishes = "session.publishes";
inline constexpr std::string_view kSpectralDenseFallbacks =
    "spectral.dense_fallbacks";
inline constexpr std::string_view kSpectralLanczosRetries =
    "spectral.lanczos_retries";
inline constexpr std::string_view kThreadpoolTasks = "threadpool.tasks";

// --- gauges --------------------------------------------------------------
inline constexpr std::string_view kGraphNodes = "graph.nodes";
inline constexpr std::string_view kMechanismCommunities =
    "mechanism.communities";
inline constexpr std::string_view kProcOpenFds = "proc.open_fds";
inline constexpr std::string_view kProcPeakRssMb = "proc.peak_rss_mb";
inline constexpr std::string_view kProcRssMb = "proc.rss_mb";
inline constexpr std::string_view kProcStimeSeconds = "proc.stime_seconds";
inline constexpr std::string_view kProcUtimeSeconds = "proc.utime_seconds";
inline constexpr std::string_view kPublishKernelVariant =
    "publish.kernel_variant";
inline constexpr std::string_view kPublishShardRows = "publish.shard_rows";
inline constexpr std::string_view kPublishSigma = "publish.sigma";
inline constexpr std::string_view kPublishWorkers = "publish.workers";
inline constexpr std::string_view kThreadpoolThreads = "threadpool.threads";

// --- lifecycle event names (obs::log_event) ------------------------------
// Structured events appended to the per-process observability sidecar
// (obs/event_log.hpp) and surfaced in the merged sgp-obs-report v2
// "events" array; R3 holds these to the same single-source-of-truth rule
// as metric names.
inline constexpr std::string_view kEventLeaseReclaimed = "lease.reclaimed";
inline constexpr std::string_view kEventLedgerCharge = "ledger.charge";
inline constexpr std::string_view kEventProcSample = "proc.sample";
inline constexpr std::string_view kEventShardCommitted = "shard.committed";
inline constexpr std::string_view kEventShardLeased = "shard.leased";
inline constexpr std::string_view kEventShardResumed = "shard.resumed";
inline constexpr std::string_view kEventWorkerExit = "worker.exit";
inline constexpr std::string_view kEventWorkerShardDone = "worker.shard_done";
inline constexpr std::string_view kEventWorkerShardStart =
    "worker.shard_start";
inline constexpr std::string_view kEventWorkerSpawned = "worker.spawned";

// --- histograms recorded directly (not via ScopedTimer) ------------------
inline constexpr std::string_view kLedgerAppendSeconds =
    "ledger.append.seconds";

// --- span / ScopedTimer base names ---------------------------------------
// Each timer also owns the derived "<name>.seconds" histogram.
inline constexpr std::string_view kIoLoadRelease = "io.load_release";
inline constexpr std::string_view kIoReadEdges = "io.read_edges";
inline constexpr std::string_view kIoReadShard = "io.read_shard";
inline constexpr std::string_view kIoSaveRelease = "io.save_release";
inline constexpr std::string_view kIoWriteEdges = "io.write_edges";
inline constexpr std::string_view kKmeans = "kmeans";
inline constexpr std::string_view kLanczos = "lanczos";
inline constexpr std::string_view kMechanismCharge = "mechanism.charge";
inline constexpr std::string_view kMechanismPartition = "mechanism.partition";
inline constexpr std::string_view kMechanismPerturb = "mechanism.perturb";
inline constexpr std::string_view kMechanismPublish = "mechanism.publish";
inline constexpr std::string_view kMechanismResample = "mechanism.resample";
inline constexpr std::string_view kPublish = "publish";
inline constexpr std::string_view kPublishDistributed = "publish.distributed";
inline constexpr std::string_view kPublishEmbed = "publish.embed";
inline constexpr std::string_view kPublishPerturb = "publish.perturb";
inline constexpr std::string_view kPublishProject = "publish.project";
inline constexpr std::string_view kPublishShard = "publish.shard";
inline constexpr std::string_view kPublishSharded = "publish.sharded";
inline constexpr std::string_view kPublishStream = "publish.stream";
inline constexpr std::string_view kSessionBeginRelease =
    "session.begin_release";
inline constexpr std::string_view kSessionPublish = "session.publish";
inline constexpr std::string_view kSpectralEmbed = "spectral.embed";
inline constexpr std::string_view kToolCompareMechanisms =
    "tool.compare_mechanisms";
inline constexpr std::string_view kToolGenerate = "tool.generate";
inline constexpr std::string_view kToolLoadGraph = "tool.load_graph";
inline constexpr std::string_view kToolPublish = "tool.publish";
inline constexpr std::string_view kToolStats = "tool.stats";

/// Every canonical name, sorted. The lint R3 rule and the registry tests
/// consume this; keep it in sync with the constants above (the
/// metric_names test enforces sortedness, uniqueness, and naming rules).
inline constexpr std::string_view kAllNames[] = {
    kEigenQlIterations,
    kEigenSolves,
    kFaultTrips,
    kGraphNodes,
    kIoEdgesRead,
    kIoEdgesWritten,
    kIoLinesRead,
    kIoLoadRelease,
    kIoReadEdges,
    kIoReadShard,
    kIoSaveRelease,
    kIoWriteEdges,
    kKmeans,
    kKmeansIterations,
    kKmeansReseeds,
    kKmeansRuns,
    kLanczos,
    kLanczosFailures,
    kLanczosIterations,
    kLanczosRestarts,
    kLanczosSolves,
    kEventLeaseReclaimed,
    kLedgerAppendSeconds,
    kLedgerAppendAttempts,
    kLedgerAppends,
    kEventLedgerCharge,
    kLedgerCrcFailures,
    kLedgerRecoveredRecords,
    kLedgerRecoveries,
    kLinalgFusedTiles,
    kMechanismCharge,
    kMechanismCommunities,
    kMechanismPartition,
    kMechanismPerturb,
    kMechanismPublish,
    kMechanismReleases,
    kMechanismResample,
    kMechanismSyntheticEdges,
    kObsEvents,
    kProcOpenFds,
    kProcPeakRssMb,
    kProcRssMb,
    kEventProcSample,
    kProcSamples,
    kProcStimeSeconds,
    kProcUtimeSeconds,
    kPublish,
    kPublishCells,
    kPublishDistributed,
    kPublishEmbed,
    kPublishEmbeds,
    kPublishKernelVariant,
    kPublishLeasesReclaimed,
    kPublishPerturb,
    kPublishProject,
    kPublishReleases,
    kPublishShard,
    kPublishShardRows,
    kPublishSharded,
    kPublishShards,
    kPublishShardsResumed,
    kPublishSigma,
    kPublishStream,
    kPublishWorkers,
    kRetryAttempts,
    kSessionBeginRelease,
    kSessionBudgetRefusals,
    kSessionPublish,
    kSessionPublishes,
    kEventShardCommitted,
    kEventShardLeased,
    kEventShardResumed,
    kSpectralDenseFallbacks,
    kSpectralEmbed,
    kSpectralLanczosRetries,
    kThreadpoolTasks,
    kThreadpoolThreads,
    kToolCompareMechanisms,
    kToolGenerate,
    kToolLoadGraph,
    kToolPublish,
    kToolStats,
    kEventWorkerExit,
    kEventWorkerShardDone,
    kEventWorkerShardStart,
    kEventWorkerSpawned,
};

/// True when `name` is in kAllNames, or is the "<base>.seconds" histogram
/// a ScopedTimer derives from a canonical base name.
[[nodiscard]] constexpr bool is_canonical_name(std::string_view name) {
  for (std::string_view n : kAllNames) {
    if (n == name) return true;
  }
  constexpr std::string_view kSuffix = ".seconds";
  if (name.size() > kSuffix.size() &&
      name.substr(name.size() - kSuffix.size()) == kSuffix) {
    const std::string_view base =
        name.substr(0, name.size() - kSuffix.size());
    for (std::string_view n : kAllNames) {
      if (n == base) return true;
    }
  }
  return false;
}

}  // namespace sgp::obs::names
