// Public spawn-API surface tests: every parameter-wrapper kind and
// combination, const-correctness, argument ordering, struct payloads,
// region wrappers, function pointers vs lambdas vs functors.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"

namespace smpss {
namespace {

Config two_threads() {
  Config c;
  c.num_threads = 2;
  return c;
}

void free_function_body(const int* a, int* b) { *b = *a * 3; }

struct FunctorBody {
  int factor;
  void operator()(const int* a, int* b) const { *b = *a * factor; }
};

TEST(SpawnApi, FreeFunction) {
  Runtime rt(two_threads());
  int x = 5, y = 0;
  rt.spawn(free_function_body, in(&x), out(&y));
  rt.barrier();
  EXPECT_EQ(y, 15);
}

TEST(SpawnApi, Functor) {
  Runtime rt(two_threads());
  int x = 5, y = 0;
  rt.spawn(FunctorBody{7}, in(&x), out(&y));
  rt.barrier();
  EXPECT_EQ(y, 35);
}

TEST(SpawnApi, CapturingLambda) {
  Runtime rt(two_threads());
  int x = 5, y = 0;
  int bonus = 100;
  rt.spawn([bonus](const int* a, int* b) { *b = *a + bonus; }, in(&x),
           out(&y));
  rt.barrier();
  EXPECT_EQ(y, 105);
}

TEST(SpawnApi, ArgumentOrderMatchesWrapperOrder) {
  Runtime rt(two_threads());
  int a = 1, b = 2, c = 3;
  int r = 0;
  // Mixed wrapper kinds; positional correspondence must hold.
  rt.spawn(
      [](const int* pa, const int& vb, int* pc, int* result) {
        *result = *pa * 100 + vb * 10 + *pc;
      },
      in(&a), value(b), inout(&c), out(&r));
  rt.barrier();
  EXPECT_EQ(r, 123);
}

TEST(SpawnApi, ValueStructPayload) {
  struct Payload {
    std::array<int, 8> data;
    int len;
  };
  Runtime rt(two_threads());
  Payload p{};
  for (int i = 0; i < 8; ++i) p.data[static_cast<std::size_t>(i)] = i;
  p.len = 8;
  long sum = 0;
  rt.spawn(
      [](const Payload& pl, long* s) {
        for (int i = 0; i < pl.len; ++i) *s += pl.data[static_cast<std::size_t>(i)];
      },
      value(p), out(&sum));
  // Mutating the original after spawn must not affect the task's copy.
  p.data[0] = 999;
  rt.barrier();
  EXPECT_EQ(sum, 28);
}

TEST(SpawnApi, OpaqueConstPointer) {
  Runtime rt(two_threads());
  const int magic = 42;
  int r = 0;
  rt.spawn([](const int* m, int* out_p) { *out_p = *m; }, opaque(&magic),
           out(&r));
  rt.barrier();
  EXPECT_EQ(r, 42);
}

TEST(SpawnApi, EightParameters) {
  Runtime rt(two_threads());
  int a = 1, b = 2, c = 3, d = 4;
  int w = 0, x = 0, y = 0, z = 0;
  rt.spawn(
      [](const int* pa, const int* pb, const int* pc, const int* pd, int* pw,
         int* px, int* py, int* pz) {
        *pw = *pa;
        *px = *pb;
        *py = *pc;
        *pz = *pd;
      },
      in(&a), in(&b), in(&c), in(&d), out(&w), out(&x), out(&y), out(&z));
  rt.barrier();
  EXPECT_EQ(w + x * 10 + y * 100 + z * 1000, 4321);
}

TEST(SpawnApi, ArrayCountSemantics) {
  Runtime rt(two_threads());
  std::vector<double> src(100, 1.5);
  double sum = 0;
  rt.spawn(
      [](const double* s, double* total) {
        for (int i = 0; i < 100; ++i) *total += s[i];
      },
      in(src.data(), src.size()), out(&sum));
  rt.barrier();
  EXPECT_DOUBLE_EQ(sum, 150.0);
}

TEST(SpawnApi, RegionWrapperPassesBasePointer) {
  Runtime rt(two_threads());
  std::vector<int> arr(64, 0);
  int* base = arr.data();
  bool base_matched = false;
  rt.spawn(
      [base, &base_matched](int* p) {
        base_matched = (p == base);
        p[10] = 7;
      },
      out(base, Region{{Bound::closed(10, 20)}}));
  rt.barrier();
  EXPECT_TRUE(base_matched);  // regions never relocate data
  EXPECT_EQ(arr[10], 7);
}

TEST(SpawnApi, MixedRegionAndScalarParams) {
  Runtime rt(two_threads());
  std::vector<long> data(32);
  for (int i = 0; i < 32; ++i) data[static_cast<std::size_t>(i)] = i;
  long total = 0;
  rt.spawn(
      [](const long* d, const long& lo, const long& hi, long* out_sum) {
        for (long i = lo; i <= hi; ++i) *out_sum += d[i];
      },
      in(data.data(), Region{{Bound::closed(4, 7)}}), value(4L), value(7L),
      out(&total));
  rt.barrier();
  EXPECT_EQ(total, 4 + 5 + 6 + 7);
}

TEST(SpawnApi, AnonymousAndNamedTypesCoexist) {
  Runtime rt(two_threads());
  TaskType named = rt.register_task_type("named");
  int x = 0, y = 0;
  rt.spawn([](int* p) { *p = 1; }, out(&x));                // type 0
  rt.spawn(named, [](int* p) { *p = 2; }, out(&y));
  rt.barrier();
  EXPECT_EQ(x, 1);
  EXPECT_EQ(y, 2);
}

TEST(SpawnApi, MutableLambdaState) {
  Runtime rt(two_threads());
  int x = 0;
  // Each task instance owns its closure; mutable state is per-instance.
  for (int i = 0; i < 3; ++i)
    rt.spawn([count = 10](int* p) mutable { *p += ++count; }, inout(&x));
  rt.barrier();
  EXPECT_EQ(x, 33);
}

TEST(SpawnApi, ConstSourceBuffers) {
  Runtime rt(two_threads());
  static const int table[4] = {10, 20, 30, 40};
  int r = 0;
  rt.spawn([](const int* t, int* out_p) { *out_p = t[2]; }, in(table, 4),
           out(&r));
  rt.barrier();
  EXPECT_EQ(r, 30);
}

TEST(SpawnApi, CommutativeWrapperSingleObject) {
  Runtime rt(two_threads());
  std::int64_t x = 0;
  for (int i = 0; i < 16; ++i)
    rt.spawn([](std::int64_t* p) { *p += 2; }, commutative(&x));
  rt.barrier();
  EXPECT_EQ(x, 32);
}

TEST(SpawnApi, ReductionWrapperWithValueParam) {
  Runtime rt(two_threads());
  std::int64_t sum = 0;
  for (int i = 0; i < 10; ++i)
    rt.spawn([](const int& k, std::int64_t* p) { *p += k; }, value(i),
             reduction(Plus{}, &sum));
  rt.barrier();
  EXPECT_EQ(sum, 45);
}

TEST(SpawnApi, TaskTypeByName) {
  Config c = two_threads();
  c.record_graph = true;
  Runtime rt(c);
  TaskType heavy = rt.register_task_type("heavy_kernel");
  EXPECT_EQ(rt.find_task_type("heavy_kernel").id, heavy.id);
  EXPECT_EQ(rt.find_task_type("no_such_type").id, 0u);  // fallback

  int x = 0, y = 0;
  rt.spawn(rt.find_task_type("heavy_kernel"), [](int* p) { *p = 1; }, out(&x));
  rt.spawn(rt.find_task_type("no_such_type"), [](int* p) { *p = 2; }, out(&y));
  rt.barrier();
  EXPECT_EQ(x, 1);
  EXPECT_EQ(y, 2);
  // The recorded nodes carry the type the name selected.
  const auto& nodes = rt.graph_recorder().nodes();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0].seq, 1u);
  EXPECT_EQ(nodes[0].type_id, heavy.id);
  EXPECT_EQ(nodes[1].seq, 2u);
  EXPECT_EQ(nodes[1].type_id, 0u);
}

TEST(SpawnApiDeath, NullPointerParameterAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  ASSERT_DEATH(
      {
        Config c;
        c.num_threads = 1;
        Runtime rt(c);
        int* bad = nullptr;
        rt.spawn([](int* p) { *p = 1; }, out(bad));
        rt.barrier();
      },
      "null pointer");
}

TEST(SpawnApiDeath, RegisterTypeOffMainThreadAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  ASSERT_DEATH(
      {
        Config c;
        c.num_threads = 1;
        Runtime rt(c);
        std::thread([&rt] { rt.register_task_type("illegal"); }).join();
      },
      "main-thread-only");
}

}  // namespace
}  // namespace smpss
