// Steady-state apply kernels allocate nothing. This executable replaces the
// global operator new with a counting one; after one warm-up call (which may
// grow the per-thread larfb scratch and the GEMM packing buffers) every
// further UNMQR/TSMQR/TTMQR/UNMLQ/TSMLQ/TTMLQ call must allocate zero times.
#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstdlib>
#include <functional>
#include <new>

#include "kernels/kernels.hpp"
#include "matrix/generate.hpp"

namespace {
std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

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

}  // namespace
}  // namespace tiledqr
