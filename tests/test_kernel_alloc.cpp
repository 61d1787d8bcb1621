// Steady-state kernels allocate nothing. This executable replaces the
// global operator new with a counting one; after one warm-up call (which may
// grow the per-thread kernel scratch and the GEMM packing buffers) every
// further UNMQR/TSMQR/TTMQR/UNMLQ/TSMLQ/TTMLQ call must allocate zero times,
// and so must every task kind run through core::run_task_kernels, the LQ
// adjoint scratches and the factor kernels' tau/work buffers included. The
// replaced operators also record the alignment of each aligned new and
// delete, which checks that AlignedAllocator pairs them.
#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "common/aligned.hpp"
#include "core/tiled_qr.hpp"
#include "kernels/kernels.hpp"
#include "matrix/generate.hpp"

namespace {
std::atomic<long> g_allocations{0};
std::atomic<std::size_t> g_last_new_align{0};
std::atomic<std::size_t> g_last_delete_align{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_last_new_align.store(align, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, alignof(std::max_align_t)); }
void* operator new[](std::size_t n) { return counted_alloc(n, alignof(std::max_align_t)); }
void* operator new(std::size_t n, std::align_val_t a) { return counted_alloc(n, std::size_t(a)); }
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, std::size_t(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t a) noexcept {
  g_last_delete_align.store(std::size_t(a), std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  g_last_delete_align.store(std::size_t(a), std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  g_last_delete_align.store(std::size_t(a), std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  g_last_delete_align.store(std::size_t(a), std::memory_order_relaxed);
  std::free(p);
}

namespace tiledqr {
namespace {

using kernels::ApplyTrans;

/// Allocations made by `f()`.
template <typename F>
long allocations_in(F&& f) {
  const long before = g_allocations.load();
  f();
  return g_allocations.load() - before;
}

template <typename T>
void check_apply_kernels_allocation_free(int nb, int ib) {
  auto v = random_matrix<T>(nb, nb, 81);
  auto v2 = random_matrix<T>(nb, nb, 82);
  auto a1 = random_matrix<T>(nb, nb, 83);
  auto c1 = random_matrix<T>(nb, nb, 84);
  auto c2 = random_matrix<T>(nb, nb, 85);
  Matrix<T> t(ib, nb), t2(ib, nb);
  // The factor kernels may allocate; only the applies are under test. One
  // reflector tile serves QR and LQ alike: the apply only reads its region.
  kernels::geqrt(ib, v.view(), t.view());
  kernels::tsqrt(ib, a1.view(), v2.view(), t2.view());

  struct Case {
    const char* name;
    std::function<void(ApplyTrans)> call;
  };
  const Case cases[] = {
      {"UNMQR", [&](ApplyTrans tr) { kernels::unmqr(tr, ib, v.view(), t.view(), c1.view()); }},
      {"TSMQR",
       [&](ApplyTrans tr) {
         kernels::tsmqr(tr, ib, v2.view(), t2.view(), c1.view(), c2.view());
       }},
      {"TTMQR",
       [&](ApplyTrans tr) {
         kernels::ttmqr(tr, ib, v2.view(), t2.view(), c1.view(), c2.view());
       }},
      {"UNMLQ", [&](ApplyTrans tr) { kernels::unmlq(tr, ib, v.view(), t.view(), c1.view()); }},
      {"TSMLQ",
       [&](ApplyTrans tr) {
         kernels::tsmlq(tr, ib, v2.view(), t2.view(), c1.view(), c2.view());
       }},
      {"TTMLQ",
       [&](ApplyTrans tr) {
         kernels::ttmlq(tr, ib, v2.view(), t2.view(), c1.view(), c2.view());
       }},
  };
  for (const auto& c : cases) {
    for (ApplyTrans tr : {ApplyTrans::ConjTrans, ApplyTrans::NoTrans}) {
      c.call(tr);  // warm-up: scratch and packing buffers reach their size
      EXPECT_EQ(allocations_in([&] {
                  for (int rep = 0; rep < 3; ++rep) c.call(tr);
                }),
                0)
          << c.name << (tr == ApplyTrans::NoTrans ? " Q" : " Q^H") << " nb=" << nb
          << " ib=" << ib;
    }
  }
}

/// Every task kind, QR and LQ, run through the DAG's task runner on a 2 x 2
/// grid of nb x nb tiles: the LQ kinds with their adjoint scratches, the
/// factor kinds with their tau/work buffers. One coordinate set serves a
/// kind and its dual (the runner maps the LQ kinds' reduction-grid tile
/// (r, c) to A-layout tile (c, r)). The values the factor kinds leave
/// behind do not matter here, only the allocations.
template <typename T>
void check_tasks_allocation_free(int nb, int ib) {
  auto dense = random_matrix<T>(2 * nb, 2 * nb, 86);
  auto a = TileMatrix<T>::from_dense(dense.view(), nb);
  core::TStore<T> ts(2, 2, ib, nb), t2s(2, 2, ib, nb);
  using kernels::KernelKind;
  for (int k = 0; k < kernels::kNumKernelKinds; ++k) {
    dag::Task t{KernelKind(k), 0, -1, 0, -1, 0, {}};
    switch (kernels::qr_dual(t.kind)) {
      case KernelKind::UNMQR: t.j = 1; break;
      case KernelKind::TSQRT:
      case KernelKind::TTQRT: t.i = 1, t.piv = 0; break;
      case KernelKind::TSMQR:
      case KernelKind::TTMQR: t.i = 1, t.piv = 0, t.j = 1; break;
      default: break;
    }
    auto run = [&] { core::run_task_kernels(t, a, ts, t2s, ib); };
    run();  // warm-up: scratch slots and packing buffers reach their size
    EXPECT_EQ(allocations_in([&] {
                for (int rep = 0; rep < 3; ++rep) run();
              }),
              0)
        << kernels::kernel_name(t.kind) << " task nb=" << nb << " ib=" << ib;
  }
}

TEST(KernelAlloc, CounterSeesAllocations) {
  // Guards the harness itself: the replaced operator new must register.
  EXPECT_EQ(allocations_in([] { ::operator delete(::operator new(64)); }), 1);
}

TEST(KernelAlloc, ApplyKernelsDoNotAllocateDouble) {
  check_apply_kernels_allocation_free<double>(64, 24);
  check_apply_kernels_allocation_free<double>(128, 32);
}

TEST(KernelAlloc, ApplyKernelsDoNotAllocateComplex) {
  check_apply_kernels_allocation_free<std::complex<double>>(40, 16);
}

TEST(KernelAlloc, TasksDoNotAllocateDouble) {
  check_tasks_allocation_free<double>(64, 24);
  check_tasks_allocation_free<double>(128, 32);
}

TEST(KernelAlloc, TasksDoNotAllocateComplex) {
  check_tasks_allocation_free<std::complex<double>>(40, 16);
}

TEST(KernelAlloc, AlignedAllocatorHugePageThreshold) {
  // At and above kHugePageBytes a block is 2 MiB aligned, below it a cache
  // line; deallocate must pass the alignment allocate used.
  AlignedAllocator<double> alloc;
  const std::size_t sizes[] = {64, kHugePageBytes - 64, kHugePageBytes, kHugePageBytes + 8,
                               3 * kHugePageBytes};
  for (std::size_t bytes : sizes) {
    const std::size_t want = bytes >= kHugePageBytes ? kHugePageBytes : kCacheLineBytes;
    EXPECT_EQ(aligned_allocation_alignment(bytes), want) << bytes;
    const std::size_t n = bytes / sizeof(double);
    double* p = alloc.allocate(n);
    EXPECT_EQ(g_last_new_align.load(), want) << bytes;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % want, 0u) << bytes;
    alloc.deallocate(p, n);
    EXPECT_EQ(g_last_delete_align.load(), want) << bytes;
  }
  // The same pairing through a growing vector, whose blocks cross the
  // threshold as it reallocates.
  std::vector<double, AlignedAllocator<double>> v;
  for (std::size_t n = 1; n <= 2 * kHugePageBytes / sizeof(double); n *= 4) {
    v.resize(n);
    const std::size_t want = v.capacity() * sizeof(double) >= kHugePageBytes ? kHugePageBytes
                                                                               : kCacheLineBytes;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % want, 0u) << n;
  }
  decltype(v)().swap(v);
  EXPECT_EQ(g_last_delete_align.load(), kHugePageBytes);
}

}  // namespace
}  // namespace tiledqr
