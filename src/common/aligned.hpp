// Cache-line aligned storage for tile data.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace tiledqr {

inline constexpr std::size_t kCacheLineBytes = 64;
/// Allocations of at least this many bytes are huge-page aligned and advised.
inline constexpr std::size_t kHugePageBytes = std::size_t(2) << 20;

/// Alignment AlignedAllocator uses for a block of `bytes` bytes: 2 MiB from
/// kHugePageBytes up, a cache line below. allocate and deallocate both pick
/// it by this one test, so every aligned new meets its matching delete.
[[nodiscard]] constexpr std::size_t aligned_allocation_alignment(std::size_t bytes) noexcept {
  return bytes >= kHugePageBytes ? kHugePageBytes : kCacheLineBytes;
}

/// Allocator producing 64-byte aligned storage, suitable for vectorized tile
/// kernels. Usable with std::vector.
///
/// Blocks of 2 MiB or more (tiled matrices, T stores) are 2 MiB aligned and
/// advised MADV_HUGEPAGE, so that under transparent huge pages in `madvise`
/// mode they fault in and stay mapped as huge pages: far fewer page faults
/// and TLB misses for the tiling copy and the strided tile accesses. The
/// advice is only a hint — its result is ignored, it does nothing where THP
/// is `never`, and it is compiled out off Linux.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    const std::size_t bytes = n * sizeof(T);
    const std::size_t align = aligned_allocation_alignment(bytes);
    void* p = ::operator new(bytes, std::align_val_t(align));
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    if (align == kHugePageBytes) (void)::madvise(p, bytes, MADV_HUGEPAGE);
#endif
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, std::align_val_t(aligned_allocation_alignment(n * sizeof(T))));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// AlignedAllocator whose value-initialization (`vector(n)`, `resize(n)`)
/// leaves the elements unwritten, for buffers that are filled before they
/// are read: a tiling copy then writes each element once instead of zeroing
/// it first. Only for trivially copyable, trivially destructible scalars
/// (implicit-lifetime types, so the allocation itself creates them).
template <typename T>
struct UninitAllocator : AlignedAllocator<T> {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };

  UninitAllocator() noexcept = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace tiledqr
