// FACTION_HOT: MaybeSnapshot/SnapshotNow run on the drain path (the holder
// flips a snapshot buffer between drains). Serialization, manifest I/O,
// and the cross-shard merge are background-job / warm-start cold paths
// inside FACTION_COLD fences.
#include "serve/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/fsio.h"
#include "common/job_system.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/token_reader.h"
#include "serve/session.h"

namespace faction {

// FACTION_COLD_BEGIN: construction, registration, teardown.
CheckpointManager::CheckpointManager(const CheckpointOptions& options,
                                    JobSystem* jobs)
    : options_(options), jobs_(jobs) {
  FACTION_CHECK(jobs_ != nullptr);
  FACTION_CHECK(!options_.dir.empty());
  options_.keep_generations = std::max<std::size_t>(
      options_.keep_generations, 1);
  if (options_.interval_steps == 0) options_.interval_steps = 1;
}

CheckpointManager::~CheckpointManager() { Flush(); }

CheckpointSlot* CheckpointManager::Attach(ServeSession* session) {
  FACTION_CHECK(session != nullptr);
  std::lock_guard<std::mutex> lock(slots_mu_);
  slots_.push_back(std::make_unique<CheckpointSlot>());
  CheckpointSlot* slot = slots_.back().get();
  slot->session = session;
  slot->buffers[0].manager = this;
  slot->buffers[1].manager = this;
  // De-synchronize the periodic snapshots: same-aged sessions would
  // otherwise all cross the interval boundary together and flood the job
  // system with a burst of serialize jobs (a latency herd on the drain
  // workers). A multiplicative hash of the attach order spreads the
  // first-snapshot phase across the interval; each session keeps its
  // phase afterwards because last_snapshot_steps advances by whole
  // intervals. The first slot keeps offset zero.
  slot->last_snapshot_steps =
      ((slots_.size() - 1) * 2654435761ull) % options_.interval_steps;
  return slot;
}

void CheckpointManager::Flush() { jobs_->WaitIdle(); }

std::string CheckpointManager::ManifestPath() const {
  return options_.dir + "/manifest";
}
// FACTION_COLD_END

bool CheckpointManager::MaybeSnapshot(ServeSession* session) {
  CheckpointSlot* slot = session->checkpoint_slot();
  if (slot == nullptr) return false;
  const std::size_t steps = session->steps();
  if (steps < slot->last_snapshot_steps + options_.interval_steps) {
    return false;
  }
  return SnapshotNow(session);
}

bool CheckpointManager::SnapshotNow(ServeSession* session) {
  CheckpointSlot* slot = session->checkpoint_slot();
  if (slot == nullptr) return false;
  // Double buffer: one may still be in a serializer job's hands while the
  // other captures the next generation. Both busy means the serializer is
  // behind — skip rather than stall the drain path.
  CheckpointBuffer* buffer = nullptr;
  for (CheckpointBuffer& candidate : slot->buffers) {
    if (candidate.status.load(std::memory_order_seq_cst) ==
        CheckpointBuffer::kFree) {
      buffer = &candidate;
      break;
    }
  }
  if (buffer == nullptr) {
    TelemetryCount("serve.checkpoint.skipped_busy", 1);
    return false;
  }
  CaptureSessionState(session->faction(), &buffer->state);
  buffer->state.stream_id = session->stream_id();
  buffer->state.generation = slot->next_generation++;
  buffer->state.steps = session->steps();
  slot->last_snapshot_steps = buffer->state.steps;
  // Publish to the serializer job *before* submitting: the job may start
  // on another worker immediately.
  buffer->status.store(CheckpointBuffer::kQueued, std::memory_order_seq_cst);
  TelemetryCount("serve.checkpoint.captured", 1);
  jobs_->Submit(&CheckpointManager::SerializeJob, buffer);
  return true;
}

// FACTION_COLD_BEGIN: serializer job, manifest I/O, warm-start helpers —
// background cadence, never on the drain path.
void CheckpointManager::SerializeJob(void* ctx) {
  auto* buffer = static_cast<CheckpointBuffer*>(ctx);
  buffer->manager->Serialize(buffer);
}

void CheckpointManager::Serialize(CheckpointBuffer* buffer) {
  const SessionState& state = buffer->state;
  EncodeSessionState(state, &buffer->encoded);
  const std::string filename = "session-" + std::to_string(state.stream_id) +
                               ".gen" + std::to_string(state.generation) +
                               ".ckpt";
  const std::string final_path = options_.dir + "/" + filename;
  const std::string tmp_path = final_path + ".tmp";
  Status status = [&]() -> Status {
    {
      std::ofstream os(tmp_path, std::ios::trunc | std::ios::binary);
      if (!os.is_open()) {
        return Status::Internal("checkpoint: cannot open " + tmp_path);
      }
      os.write(buffer->encoded.data(),
               static_cast<std::streamsize>(buffer->encoded.size()));
      os.flush();
      if (!os.good()) {
        return Status::Internal("checkpoint: write failed for " + tmp_path);
      }
    }
    FACTION_RETURN_IF_ERROR(CommitFileDurable(tmp_path, final_path));
    return CommitManifest(state, filename);
  }();
  if (status.ok()) {
    TelemetryCount("serve.checkpoint.serialized", 1);
    // Rotate: the manifest has durably advanced to `generation`, so the
    // generation that fell out of the retention window is dead weight.
    if (state.generation > options_.keep_generations) {
      const std::uint64_t dead = state.generation - options_.keep_generations;
      const std::string dead_path = options_.dir + "/session-" +
                                    std::to_string(state.stream_id) + ".gen" +
                                    std::to_string(dead) + ".ckpt";
      std::remove(dead_path.c_str());
    }
  } else {
    // Never fatal: the previous durable generation stays valid and the
    // next interval retries with fresh state.
    failures_.fetch_add(1, std::memory_order_seq_cst);
    TelemetryCount("serve.checkpoint.errors", 1);
    FACTION_LOG(kWarning) << "checkpoint serialize failed: "
                          << status.ToString();
  }
  buffer->status.store(CheckpointBuffer::kFree, std::memory_order_seq_cst);
}

Status CheckpointManager::CommitManifest(const SessionState& state,
                                         const std::string& filename) {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  CheckpointManifestEntry& entry = manifest_[state.stream_id];
  // Serializer jobs of one session can complete out of order (buffer A's
  // job may outlive buffer B's); the manifest only ever advances.
  if (entry.generation >= state.generation) return Status::Ok();
  entry.stream_id = state.stream_id;
  entry.generation = state.generation;
  entry.steps = state.steps;
  entry.filename = filename;

  std::ostringstream os;
  os << "faction-manifest v1\n" << "sessions " << manifest_.size() << '\n';
  for (const auto& [id, e] : manifest_) {
    os << id << ' ' << e.generation << ' ' << e.steps << ' ' << e.filename
       << '\n';
  }
  const std::string manifest_path = ManifestPath();
  const std::string tmp_path = manifest_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out.is_open()) {
      return Status::Internal("checkpoint: cannot open " + tmp_path);
    }
    out << os.str();
    out.flush();
    if (!out.good()) {
      return Status::Internal("checkpoint: manifest write failed for " +
                              tmp_path);
    }
  }
  return CommitFileDurable(tmp_path, manifest_path);
}

Result<std::vector<CheckpointManifestEntry>> CheckpointManager::ReadManifest(
    const std::string& path) {
  std::ifstream is(path);
  if (!is.is_open()) {
    return Status::NotFound("ReadManifest: cannot open " + path);
  }
  TokenReader r(is, "ReadManifest", path);
  FACTION_RETURN_IF_ERROR(r.Expect("faction-manifest"));
  FACTION_RETURN_IF_ERROR(r.Expect("v1"));
  FACTION_RETURN_IF_ERROR(r.Expect("sessions"));
  std::size_t count = 0;
  FACTION_RETURN_IF_ERROR(r.Read(&count, "session count"));
  FACTION_RETURN_IF_ERROR(r.ExpectRoom(count, "session count"));
  std::vector<CheckpointManifestEntry> entries(count);
  for (CheckpointManifestEntry& e : entries) {
    FACTION_RETURN_IF_ERROR(r.Read(&e.stream_id, "manifest entry"));
    FACTION_RETURN_IF_ERROR(r.Read(&e.generation, "manifest entry"));
    FACTION_RETURN_IF_ERROR(r.Read(&e.steps, "manifest entry"));
    FACTION_RETURN_IF_ERROR(r.Token(&e.filename, "manifest entry"));
  }
  return entries;
}

namespace {

/// One shard's decode in MergeSufficientStats.
struct ShardDecode {
  SessionState state;
  Status status;
};

}  // namespace

Result<FairDensityEstimator> MergeSufficientStats(
    const std::vector<std::string>& checkpoint_paths,
    const CovarianceConfig& config) {
  if (checkpoint_paths.empty()) {
    return Status::InvalidArgument("MergeSufficientStats: no shards given");
  }
  // Decoding is pure and per shard, so shards decode in parallel; the fold
  // below stays in path order.
  std::vector<ShardDecode> shards(checkpoint_paths.size());
  ParallelFor(0, shards.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      shards[i].status =
          DecodeSessionStateFromFile(checkpoint_paths[i], &shards[i].state);
    }
  });
  for (const ShardDecode& shard : shards) {
    FACTION_RETURN_IF_ERROR(shard.status);
  }
  // Fold in path order: MergeFrom is additive, so the result is
  // independent of the order up to floating-point association, but a fixed
  // order keeps repeated merges bitwise reproducible.
  std::optional<FairDensityEstimator> merged;
  std::optional<FairDensityEstimator> shard_density;
  for (const ShardDecode& shard : shards) {
    if (!shard.state.density.has_value) continue;
    FACTION_RETURN_IF_ERROR(
        RestoreDensity(shard.state.density, config, &shard_density));
    if (!merged.has_value()) {
      merged = std::move(shard_density);
    } else {
      FACTION_RETURN_IF_ERROR(merged->MergeFrom(*shard_density, config));
    }
  }
  if (!merged.has_value()) {
    return Status::FailedPrecondition(
        "MergeSufficientStats: no shard carries a density estimator");
  }
  return std::move(*merged);
}
// FACTION_COLD_END

}  // namespace faction
