// FACTION_HOT: Offer/Schedule/DrainJob run once per served arrival.
// Construction and session registration sit inside FACTION_COLD fences.
#include "serve/serve_runtime.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"
#include "common/telemetry.h"

namespace faction {

// FACTION_COLD_BEGIN: runtime construction and session registration.
ServeRuntime::ServeRuntime(const ServeRuntimeOptions& options)
    : options_(options), jobs_([&] {
        JobSystem::Options jobs;
        jobs.workers = options.workers;
        // One in-flight drain plus one reschedule per session, plus up to
        // two queued checkpoint-serializer jobs (one per snapshot buffer),
        // with slack for the transient overlaps.
        jobs.max_jobs = std::max<std::size_t>(options.max_sessions, 1) * 4 + 16;
        jobs.deque_capacity =
            std::max<std::size_t>(options.max_sessions, 1);
        return jobs;
      }()) {}

ServeSession* ServeRuntime::CreateSession(ServeSessionOptions options) {
  FACTION_CHECK(registry_.size() < options_.max_sessions);
  if (options.mailbox_capacity == 0) {
    options.mailbox_capacity = options_.mailbox_capacity;
  }
  ServeSession* session = registry_.Create(options);
  session->set_runtime(this);
  if (checkpoints_) {
    session->set_checkpoint_slot(checkpoints_->Attach(session));
  }
  return session;
}

CheckpointManager* ServeRuntime::EnableCheckpoints(
    const CheckpointOptions& options) {
  FACTION_CHECK(checkpoints_ == nullptr);
  checkpoints_ = std::make_unique<CheckpointManager>(options, &jobs_);
  for (ServeSession* session : registry_.Sessions()) {
    session->set_checkpoint_slot(checkpoints_->Attach(session));
  }
  return checkpoints_.get();
}

Result<WarmStartReport> ServeRuntime::WarmStart(
    const std::string& manifest_path, const WarmStartOptions& options) {
  FACTION_ASSIGN_OR_RETURN(std::vector<CheckpointManifestEntry> entries,
                           CheckpointManager::ReadManifest(manifest_path));
  const std::size_t slash = manifest_path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".")
                                 : manifest_path.substr(0, slash);
  WarmStartReport report;
  // One unreadable or unrestorable session degrades that session, not
  // the fleet.
  const auto quarantine = [&report](const std::string& path,
                                    const Status& why) {
    ++report.quarantined;
    FACTION_LOG(kWarning) << "WarmStart: quarantined " << path << ": "
                          << why.ToString();
  };
  SessionState state;
  for (const CheckpointManifestEntry& entry : entries) {
    const std::string path = dir + "/" + entry.filename;
    Status decoded = DecodeSessionStateFromFile(path, &state);
    if (decoded.ok() && state.stream_id != entry.stream_id) {
      decoded = Status::InvalidArgument(
          "checkpoint does not belong to the manifest's stream id " +
          std::to_string(entry.stream_id));
    }
    if (decoded.ok() && registry_.Find(state.stream_id) != nullptr) {
      decoded = Status::InvalidArgument("stream id already restored");
    }
    if (!decoded.ok()) {
      quarantine(path, decoded);
      continue;
    }
    if (registry_.size() >= options_.max_sessions) {
      return Status::ResourceExhausted(
          "WarmStart: the manifest holds more sessions than max_sessions");
    }
    ServeSessionOptions session_options;
    session_options.stream_id = state.stream_id;
    session_options.faction = state.config;
    session_options.mailbox_capacity = options.mailbox_capacity;
    session_options.decision_log_capacity = options.decision_log_capacity;
    ServeSession* session = CreateSession(session_options);
    // Restore validates the whole state before it touches the learner, so
    // a rejected state leaves the session cold, as constructed.
    const Status restored =
        RestoreSessionState(state, session->mutable_faction());
    if (restored.ok()) {
      session->set_restored_steps(state.steps);
      ++report.sessions;
      report.total_steps += state.steps;
    } else {
      quarantine(path, restored);
    }
    if (CheckpointSlot* slot = session->checkpoint_slot()) {
      // Resume the generation sequence where the checkpointed session
      // left off, so rotation and the manifest stay monotone.
      slot->next_generation = state.generation + 1;
      if (restored.ok()) slot->last_snapshot_steps = state.steps;
    }
    report.max_generation = std::max(report.max_generation, state.generation);
  }
  return report;
}
// FACTION_COLD_END

void ServeRuntime::DrainJob(void* ctx) {
  auto* session = static_cast<ServeSession*>(ctx);
  ServeRuntime* runtime = session->runtime();
  session->Drain(runtime->options_.record_latency ? &runtime->clock_
                                                  : nullptr);
  // Snapshot while still holding the schedule: the capture reads learner
  // state, and the holder is the only writer. Interval-gated and
  // double-buffered, so this flips a pre-sized buffer (or skips) — it
  // never serializes or touches a file on this thread.
  if (runtime->checkpoints_) runtime->checkpoints_->MaybeSnapshot(session);
  if (session->FinishSchedule()) {
    // Arrivals raced in after the final drain pass and we re-took the
    // schedule; requeue rather than loop inline so one hot session cannot
    // monopolize a worker.
    runtime->Schedule(session);
  }
}

void ServeRuntime::Schedule(ServeSession* session) {
  jobs_.Submit(&ServeRuntime::DrainJob, session);
}

bool ServeRuntime::Offer(ServeSession* session, const Example& example) {
  FACTION_CHECK(session != nullptr && session->runtime() == this);
  const double enqueue_seconds =
      options_.record_latency ? clock_.ElapsedSeconds() : -1.0;
  if (!session->Push(example, enqueue_seconds)) return false;
  TelemetryCount("serve.arrivals.offered", 1);
  // Won the idle->scheduled CAS: exactly one drain job owns the session
  // until FinishSchedule releases it. Lost it: the current holder's
  // FinishSchedule re-check is ordered after our Push and picks the
  // arrival up.
  if (session->BeginSchedule()) Schedule(session);
  return true;
}

void ServeRuntime::Drain() {
  jobs_.WaitIdle();
  const JobSystem::Stats stats = jobs_.TakeStats();
  TelemetryCount("serve.jobs.stolen", stats.stolen);
  TelemetryCount("serve.workers.parked", stats.parked);
}

}  // namespace faction
