// Vector set-intersection kernels (internal to sim/).
//
// Block all-pairs intersection in the style of Schlegel et al. /
// Lemire's SIMD compression work: load one vector-width window from
// each sorted, deduplicated input, compare every (a, b) lane pair via
// register rotations, popcount the hit mask, then advance whichever
// window has the smaller maximum. Because the inputs are strictly
// increasing, a window pair contributes each common element exactly
// once: a hit (x == y) implies x <= max of both windows, and only
// windows whose maximum was <= the other's advance — so no common
// element is counted twice or skipped. Tails shorter than a window
// fall through to the scalar merge.
//
// The Bounded variants carry the PPJoin+ abandon test: before each
// block, if the hits so far plus min(remaining a, remaining b) cannot
// reach min_req, the true intersection provably cannot either, and the
// kernel returns kAbandonedIntersect. Abandon timing never changes a
// returned count — callers only see the sentinel when the exact count
// would have been < min_req — so SetSimilarityBounded stays bit-equal
// across tiers.
//
// These functions are compiled in their own translation unit with the
// matching -m flags (see src/sim/CMakeLists.txt) and must only be
// called after a CPUID check (sim/kernel_dispatch.h); kernel.cc is the
// sole caller.

#ifndef HERA_SIM_KERNEL_SIMD_H_
#define HERA_SIM_KERNEL_SIMD_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define HERA_X86_SIMD 1
#endif

namespace hera {
namespace simd {

/// Sentinel for the bounded kernels: the intersection provably cannot
/// reach min_req. Distinct from any real count (counts are <= set
/// sizes, far below SIZE_MAX).
inline constexpr size_t kAbandonedIntersect = ~size_t{0};

#ifdef HERA_X86_SIMD

/// Exact |a ∩ b| using 8-lane AVX2 windows; inputs sorted + deduped.
size_t IntersectAvx2(const uint32_t* a, size_t na, const uint32_t* b,
                     size_t nb);

/// IntersectAvx2 with the integer abandon test: returns the exact count
/// when it is >= min_req could still be reached at every block, else
/// kAbandonedIntersect (in which case the exact count is < min_req).
size_t IntersectBoundedAvx2(const uint32_t* a, size_t na, const uint32_t* b,
                            size_t nb, size_t min_req);

#endif  // HERA_X86_SIMD

}  // namespace simd
}  // namespace hera

#endif  // HERA_SIM_KERNEL_SIMD_H_
