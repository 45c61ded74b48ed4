#include "tensor/simd.h"

#include <atomic>
#include <mutex>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "common/telemetry.h"

namespace faction {

// Per-tier tables, defined by simd_kernels.inc under tier namespaces. The
// wide tiers exist only when the compiler accepted the matching -m flag;
// their code is reached exclusively through these tables, after the cpuid
// check below — never before dispatch.
namespace simd_generic {
const SimdKernels& Kernels();
}  // namespace simd_generic
#if defined(FACTION_SIMD_HAVE_AVX2)
namespace simd_avx2 {
const SimdKernels& Kernels();
}  // namespace simd_avx2
#endif
#if defined(FACTION_SIMD_HAVE_AVX512)
namespace simd_avx512 {
const SimdKernels& Kernels();
}  // namespace simd_avx512
#endif

namespace {

std::atomic<const SimdKernels*> g_active{nullptr};

bool CpuSupports(SimdLevel level);

const SimdKernels* BaseTableFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kGeneric:
      return &simd_generic::Kernels();
    case SimdLevel::kAvx2:
#if defined(FACTION_SIMD_HAVE_AVX2)
      return &simd_avx2::Kernels();
#else
      return nullptr;
#endif
    case SimdLevel::kAvx512:
#if defined(FACTION_SIMD_HAVE_AVX512)
      return &simd_avx512::Kernels();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

// Per-kernel dispatch for the blocked log-pdf solve. The triangular
// solves run at the model dimension (d=16 doubles): one column of the
// solve fills barely two zmm registers' worth of work, so 512-bit width
// buys nothing there while 512-bit instruction use can license-downclock
// the core around it. Measured on the fleet host, the avx512 table with
// avx2's solve wins pool scoring by ~1.2x over the all-avx512 table
// (BENCH_PR5 recorded the same ratio), so by default the avx512 tier
// borrows the avx2 solve kernel; GEMM-bound kernels keep their 512-bit
// versions, which still win. FACTION_SIMD_LOGPDF_LEVEL ("generic" |
// "avx2" | "avx512", read once at first dispatch) pins the solve kernel
// of EVERY tier's table instead — "avx512" restores the uniform table on
// hosts that do not downclock. Every tier is bitwise-identical by
// contract (simd_kernels.inc), so borrowing a kernel across tiers can
// never change an output — only its speed.
//
// Deliberately avoids ParseSimdLevel/SimdLevelSupported here: both call
// back into TableFor, which would re-enter this magic static while it
// is still initializing.
struct LogPdfOverride {
  bool active = false;
  SimdLevel level = SimdLevel::kGeneric;
};

const LogPdfOverride& GetLogPdfOverride() {
  static const LogPdfOverride resolved = [] {
    LogPdfOverride o;
    const char* env = std::getenv("FACTION_SIMD_LOGPDF_LEVEL");
    if (env == nullptr || *env == '\0') return o;
    const std::string value(env);
    SimdLevel level;
    if (value == "generic") {
      level = SimdLevel::kGeneric;
    } else if (value == "avx2") {
      level = SimdLevel::kAvx2;
    } else if (value == "avx512") {
      level = SimdLevel::kAvx512;
    } else {
      FACTION_LOG(kWarning) << "FACTION_SIMD_LOGPDF_LEVEL=" << value
                            << " not recognized; using per-tier kernels";
      return o;
    }
    if (BaseTableFor(level) == nullptr || !CpuSupports(level)) {
      FACTION_LOG(kWarning) << "FACTION_SIMD_LOGPDF_LEVEL=" << value
                            << " not supported on this host; using "
                            << "per-tier kernels";
      return o;
    }
    o.active = true;
    o.level = level;
    return o;
  }();
  return resolved;
}

// Tier whose logpdf_block the `level` table should carry: the pinned
// tier when FACTION_SIMD_LOGPDF_LEVEL is set, otherwise avx2 for the
// avx512 table (the measured-fastest default above) and the tier's own
// kernel everywhere else.
SimdLevel LogPdfLevelFor(SimdLevel level) {
  const LogPdfOverride& pinned = GetLogPdfOverride();
  if (pinned.active) return pinned.level;
  if (level == SimdLevel::kAvx512 &&
      BaseTableFor(SimdLevel::kAvx2) != nullptr &&
      CpuSupports(SimdLevel::kAvx2)) {
    return SimdLevel::kAvx2;
  }
  return level;
}

const SimdKernels* TableFor(SimdLevel level) {
  const SimdKernels* base = BaseTableFor(level);
  if (base == nullptr) return nullptr;
  const SimdLevel solve_level = LogPdfLevelFor(level);
  if (solve_level == level) return base;
  // One patched copy per tier, built on first use. The name/level fields
  // keep the host tier's identity: the table still *is* that dispatch
  // tier, with one kernel borrowed.
  static SimdKernels patched[3];
  static std::once_flag once[3];
  const int idx = static_cast<int>(level);
  std::call_once(once[idx], [base, solve_level, idx] {
    patched[idx] = *base;
    // The two triangular-solve kernels travel together: both run at the
    // model dimension, so whatever tier wins (or is pinned) for the
    // log-pdf solve is right for the downdate guard solve too.
    patched[idx].logpdf_block = BaseTableFor(solve_level)->logpdf_block;
    patched[idx].downdate_solve = BaseTableFor(solve_level)->downdate_solve;
  });
  return &patched[idx];
}

bool CpuSupports(SimdLevel level) {
  switch (level) {
    case SimdLevel::kGeneric:
      return true;
    case SimdLevel::kAvx2:
#if defined(FACTION_SIMD_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdLevel::kAvx512:
#if defined(FACTION_SIMD_HAVE_AVX512)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

SimdLevel HighestSupported() {
  if (SimdLevelSupported(SimdLevel::kAvx512)) return SimdLevel::kAvx512;
  if (SimdLevelSupported(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  return SimdLevel::kGeneric;
}

// First-use resolution: FACTION_SIMD_LEVEL when set and usable, otherwise
// the widest tier this binary and CPU support. Concurrent first calls
// resolve to the same table, so the benign store race is harmless.
const SimdKernels* Resolve() {
  SimdLevel level = HighestSupported();
  const char* env = std::getenv("FACTION_SIMD_LEVEL");
  if (env != nullptr && *env != '\0') {
    Result<SimdLevel> parsed = ParseSimdLevel(env);
    if (!parsed.ok()) {
      FACTION_LOG(kWarning) << "FACTION_SIMD_LEVEL=" << env
                            << " not recognized; using "
                            << SimdLevelName(level);
    } else if (!SimdLevelSupported(parsed.value())) {
      FACTION_LOG(kWarning) << "FACTION_SIMD_LEVEL=" << env
                            << " not supported on this host; using "
                            << SimdLevelName(level);
    } else {
      level = parsed.value();
    }
  }
  return TableFor(level);
}

}  // namespace

const SimdKernels& ActiveSimd() {
  const SimdKernels* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = Resolve();
    g_active.store(table, std::memory_order_release);
  }
  return *table;
}

SimdLevel ActiveSimdLevel() { return ActiveSimd().level; }

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kGeneric:
      return "generic";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool SimdLevelSupported(SimdLevel level) {
  return TableFor(level) != nullptr && CpuSupports(level);
}

Result<SimdLevel> ParseSimdLevel(const std::string& value) {
  if (value == "generic") return SimdLevel::kGeneric;
  if (value == "avx2") return SimdLevel::kAvx2;
  if (value == "avx512") return SimdLevel::kAvx512;
  if (value == "native") return HighestSupported();
  return Status::InvalidArgument("unknown SIMD level: " + value);
}

Status SetSimdLevel(SimdLevel level) {
  if (!SimdLevelSupported(level)) {
    return Status::InvalidArgument(std::string("SIMD level not supported: ") +
                                   SimdLevelName(level));
  }
  g_active.store(TableFor(level), std::memory_order_release);
  return Status::Ok();
}

void PublishSimdTelemetry() {
  const SimdKernels& kernels = ActiveSimd();
  TelemetryGauge("simd.dispatch_level", static_cast<double>(kernels.level));
  if (Telemetry* t = Telemetry::Get()) {
    t->AddCounter(std::string("simd.dispatch.") + kernels.name);
  }
}

}  // namespace faction
