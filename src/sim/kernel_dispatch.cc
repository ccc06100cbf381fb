#include "sim/kernel_dispatch.h"

#include <cstdlib>

namespace hera {

namespace kernel_internal {
std::atomic<uint64_t> g_simd_intersections{0};
std::atomic<uint64_t> g_myers_calls{0};
}  // namespace kernel_internal

namespace {

#if defined(__x86_64__) || defined(__i386__)
bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }
#else
bool CpuHasAvx2() { return false; }
#endif

/// kAuto until the first ActiveKernelDispatch()/SetActiveKernelDispatch
/// resolves it.
std::atomic<KernelDispatch> g_active{KernelDispatch::kAuto};

/// The HERA_KERNEL_DISPATCH environment override, or kAuto when unset
/// or unparseable (an unknown value falls back to auto rather than
/// aborting a run over a typo — the run report's kernel.dispatch_tier
/// gauge shows what actually ran).
KernelDispatch EnvRequestedDispatch() {
  const char* env = std::getenv("HERA_KERNEL_DISPATCH");
  if (env == nullptr || *env == '\0') return KernelDispatch::kAuto;
  KernelDispatch tier;
  if (!KernelDispatchFromString(env, &tier)) return KernelDispatch::kAuto;
  return tier;
}

}  // namespace

bool CpuSupportsKernelDispatch(KernelDispatch tier) {
  switch (tier) {
    case KernelDispatch::kAvx2:
      return CpuHasAvx2();
    case KernelDispatch::kAuto:
    case KernelDispatch::kScalar:
      return true;
  }
  return true;
}

KernelDispatch BestSupportedKernelDispatch() {
  if (CpuHasAvx2()) return KernelDispatch::kAvx2;
  return KernelDispatch::kScalar;
}

KernelDispatch ResolveKernelDispatch(KernelDispatch requested) {
  if (requested == KernelDispatch::kAuto) {
    requested = EnvRequestedDispatch();
    if (requested == KernelDispatch::kAuto) {
      return BestSupportedKernelDispatch();
    }
  }
  // Clamp a named tier down to what the CPU can run.
  if (requested == KernelDispatch::kAvx2 && !CpuHasAvx2()) {
    requested = KernelDispatch::kScalar;
  }
  return requested;
}

KernelDispatch ActiveKernelDispatch() {
  KernelDispatch tier = g_active.load(std::memory_order_relaxed);
  if (tier == KernelDispatch::kAuto) {
    // Benign race: concurrent first readers resolve to the same value
    // (the environment and CPUID are stable for the process lifetime).
    tier = ResolveKernelDispatch(KernelDispatch::kAuto);
    g_active.store(tier, std::memory_order_relaxed);
  }
  return tier;
}

void SetActiveKernelDispatch(KernelDispatch tier) {
  g_active.store(ResolveKernelDispatch(tier), std::memory_order_relaxed);
}

const char* KernelDispatchToString(KernelDispatch tier) {
  switch (tier) {
    case KernelDispatch::kAuto:
      return "auto";
    case KernelDispatch::kAvx2:
      return "avx2";
    case KernelDispatch::kScalar:
      return "scalar";
  }
  return "auto";
}

bool KernelDispatchFromString(const std::string& name, KernelDispatch* tier) {
  if (name == "auto") {
    *tier = KernelDispatch::kAuto;
  } else if (name == "avx2") {
    *tier = KernelDispatch::kAvx2;
  } else if (name == "scalar") {
    *tier = KernelDispatch::kScalar;
  } else {
    return false;
  }
  return true;
}

int KernelDispatchGaugeValue(KernelDispatch tier) {
  switch (tier) {
    case KernelDispatch::kAvx2:
      return 2;
    case KernelDispatch::kAuto:
    case KernelDispatch::kScalar:
      return 0;
  }
  return 0;
}

KernelCounterSnapshot KernelCountersNow() {
  KernelCounterSnapshot snap;
  snap.simd_intersections =
      kernel_internal::g_simd_intersections.load(std::memory_order_relaxed);
  snap.myers_calls =
      kernel_internal::g_myers_calls.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace hera
