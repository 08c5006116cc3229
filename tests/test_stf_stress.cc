// Stress suite: randomized STF task graphs validated against a sequential
// oracle.
//
// We generate random programs over a set of logical arrays — each step
// reads one or two arrays and writes/updates another, at a random place —
// submit them as an STF graph, and replay the same steps sequentially on
// plain vectors. Whatever interleaving the scheduler picks, declared
// accesses force the same dataflow, so the results must match exactly.
#include <gtest/gtest.h>

#include <numeric>

#include "fzmod/common/rng.hh"
#include "fzmod/stf/stf.hh"

namespace fzmod::stf {
namespace {

struct step {
  int op;       // 0: dst = a + b; 1: dst += a; 2: dst = a * 3 + 1
  int dst, a, b;
  place where;
};

constexpr std::size_t array_len = 257;

std::vector<step> random_program(rng& r, int narrays, int nsteps) {
  std::vector<step> prog;
  prog.reserve(nsteps);
  for (int s = 0; s < nsteps; ++s) {
    step st;
    st.op = static_cast<int>(r.next_below(3));
    st.dst = static_cast<int>(r.next_below(narrays));
    st.a = static_cast<int>(r.next_below(narrays));
    st.b = static_cast<int>(r.next_below(narrays));
    st.where = r.next_below(2) ? place::host : place::device;
    prog.push_back(st);
  }
  return prog;
}

void apply_step_kernel(int op, std::span<i64> dst, std::span<const i64> a,
                       std::span<const i64> b) {
  for (std::size_t i = 0; i < dst.size(); ++i) {
    switch (op) {
      case 0: dst[i] = a[i] + b[i]; break;
      case 1: dst[i] += a[i]; break;
      default: dst[i] = a[i] * 3 + 1; break;
    }
  }
}

class StfStress : public ::testing::TestWithParam<int> {};

TEST_P(StfStress, RandomGraphMatchesSequentialOracle) {
  rng r(1000 + static_cast<u64>(GetParam()));
  const int narrays = 4 + static_cast<int>(r.next_below(4));
  const int nsteps = 30 + static_cast<int>(r.next_below(80));
  const auto prog = random_program(r, narrays, nsteps);

  // Oracle: sequential replay on plain vectors.
  std::vector<std::vector<i64>> oracle(narrays);
  for (int k = 0; k < narrays; ++k) {
    oracle[k].resize(array_len);
    std::iota(oracle[k].begin(), oracle[k].end(), k * 1000);
  }
  for (const auto& st : prog) {
    // Self-references are fine: the kernels read element-wise in order.
    auto a = oracle[st.a];
    auto b = oracle[st.b];
    apply_step_kernel(st.op, oracle[st.dst], a, b);
  }

  // STF execution of the same program.
  context ctx;
  std::vector<logical_data<i64>> arrays;
  for (int k = 0; k < narrays; ++k) {
    std::vector<i64> init(array_len);
    std::iota(init.begin(), init.end(), k * 1000);
    arrays.push_back(ctx.import<i64>(init));
  }
  for (const auto& st : prog) {
    const int op = st.op;
    if (st.a == st.dst || st.b == st.dst) {
      // Aliased operand: declare a single rw dependency and read the
      // destination's own (snapshotted) contents inside the task.
      const int other = st.a == st.dst ? st.b : st.a;
      const bool dst_is_a = st.a == st.dst;
      if (other == st.dst) {
        ctx.submit(
            "step-self", st.where,
            [op](device::stream&, device::buffer<i64>& d) {
              std::vector<i64> snapshot(d.data(), d.data() + d.size());
              apply_step_kernel(op, {d.data(), d.size()}, snapshot,
                                snapshot);
            },
            rw(arrays[static_cast<std::size_t>(st.dst)]));
      } else {
        ctx.submit(
            "step-alias", st.where,
            [op, dst_is_a](device::stream&, device::buffer<i64>& d,
                           device::buffer<i64>& o) {
              std::vector<i64> snapshot(d.data(), d.data() + d.size());
              if (dst_is_a) {
                apply_step_kernel(op, {d.data(), d.size()}, snapshot,
                                  {o.data(), o.size()});
              } else {
                apply_step_kernel(op, {d.data(), d.size()},
                                  {o.data(), o.size()}, snapshot);
              }
            },
            rw(arrays[static_cast<std::size_t>(st.dst)]),
            read(arrays[static_cast<std::size_t>(other)]));
      }
    } else {
      ctx.submit(
          "step", st.where,
          [op](device::stream&, device::buffer<i64>& d,
               device::buffer<i64>& a, device::buffer<i64>& b) {
            apply_step_kernel(op, {d.data(), d.size()},
                              {a.data(), a.size()}, {b.data(), b.size()});
          },
          rw(arrays[static_cast<std::size_t>(st.dst)]),
          read(arrays[static_cast<std::size_t>(st.a)]),
          read(arrays[static_cast<std::size_t>(st.b)]));
    }
  }
  ctx.finalize();

  for (int k = 0; k < narrays; ++k) {
    const auto got = arrays[static_cast<std::size_t>(k)].fetch_host();
    for (std::size_t i = 0; i < array_len; ++i) {
      ASSERT_EQ(got[i], oracle[k][i]) << "array " << k << " @ " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StfStress, ::testing::Range(0, 12));

TEST(StfStress, WideFanoutFanin) {
  // One producer, 64 concurrent consumers, one reducer.
  context ctx;
  auto src = ctx.make_data<i64>(128);
  ctx.submit(
      "produce", place::device,
      [](device::stream&, device::buffer<i64>& d) {
        std::iota(d.data(), d.data() + d.size(), 1);
      },
      write(src));
  std::vector<logical_data<i64>> partials;
  for (int k = 0; k < 64; ++k) {
    partials.push_back(ctx.make_data<i64>(1));
    ctx.submit(
        "consume", k % 2 ? place::host : place::device,
        [k](device::stream&, device::buffer<i64>& s,
            device::buffer<i64>& out) {
          out.data()[0] =
              std::accumulate(s.data(), s.data() + s.size(), i64{0}) + k;
        },
        read(src), write(partials.back()));
  }
  auto total = ctx.make_data<i64>(1);
  // The reducer reads all 64 partials; express as sequential accumulation
  // to keep the variadic arity small.
  ctx.submit(
      "zero", place::host,
      [](device::stream&, device::buffer<i64>& t) { t.data()[0] = 0; },
      write(total));
  for (auto& pk : partials) {
    ctx.submit(
        "reduce", place::host,
        [](device::stream&, device::buffer<i64>& t,
           device::buffer<i64>& p) { t.data()[0] += p.data()[0]; },
        rw(total), read(pk));
  }
  ctx.finalize();
  const i64 base = 128 * 129 / 2;
  const i64 expect = 64 * base + 63 * 64 / 2;
  EXPECT_EQ(total.fetch_host()[0], expect);
}

TEST(StfStress, ManyIndependentChains) {
  // 16 chains of 25 dependent increments each; chains interleave freely.
  context ctx;
  std::vector<logical_data<i64>> chains;
  for (int c = 0; c < 16; ++c) {
    chains.push_back(ctx.make_data<i64>(8));
    ctx.submit(
        "init", place::device,
        [c](device::stream&, device::buffer<i64>& d) {
          std::fill(d.data(), d.data() + d.size(), c);
        },
        write(chains.back()));
    for (int s = 0; s < 25; ++s) {
      ctx.submit(
          "bump", s % 2 ? place::host : place::device,
          [](device::stream&, device::buffer<i64>& d) {
            for (std::size_t i = 0; i < d.size(); ++i) d.data()[i] += 1;
          },
          rw(chains.back()));
    }
  }
  ctx.finalize();
  for (int c = 0; c < 16; ++c) {
    const auto got = chains[static_cast<std::size_t>(c)].fetch_host();
    EXPECT_EQ(got[0], c + 25);
    EXPECT_EQ(got[7], c + 25);
  }
}

TEST(StfStress, IndependentKernelTasksOutnumberingWorkers) {
  // Every task body launches a kernel on its stream and the task syncs
  // that stream on a pool worker. With more ready tasks than workers, a
  // worker that waited on a drain queued behind the other tasks would
  // never wake; pool work runs its stream ops in place instead.
  constexpr int ntasks = 32;
  constexpr std::size_t len = 3 * (std::size_t{1} << 14) + 5;  // > 1 block
  context ctx;
  std::vector<logical_data<i64>> outs;
  for (int k = 0; k < ntasks; ++k) {
    outs.push_back(ctx.make_data<i64>(len));
    ctx.submit(
        "kernel", place::device,
        [k](device::stream& s, device::buffer<i64>& d) {
          i64* p = d.data();
          device::launch(s, d.size(), [p, k](std::size_t i) {
            p[i] = i64{k} * 1000003 + static_cast<i64>(i);
          });
        },
        write(outs.back()));
  }
  ctx.finalize();
  for (int k = 0; k < ntasks; ++k) {
    const auto got = outs[static_cast<std::size_t>(k)].fetch_host();
    ASSERT_EQ(got.size(), len);
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(got[i], i64{k} * 1000003 + static_cast<i64>(i))
          << "task " << k << " element " << i;
    }
  }
}

}  // namespace
}  // namespace fzmod::stf
