// Micro-benchmarks: spatial index build and query costs (R-tree vs grid
// vs linear scan). The batch framework issues one working-area circle
// query per worker per batch, so query latency is on the critical path.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "spatial/grid_index.h"
#include "spatial/linear_scan.h"
#include "spatial/rtree.h"

namespace casc {
namespace {

std::vector<SpatialItem> MakeItems(int count) {
  Rng rng(42);
  std::vector<SpatialItem> items;
  items.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    items.push_back(SpatialItem{i, {rng.Uniform(), rng.Uniform()}});
  }
  return items;
}

template <typename Index>
std::unique_ptr<SpatialIndex> MakeIndex();

template <>
std::unique_ptr<SpatialIndex> MakeIndex<LinearScan>() {
  return std::make_unique<LinearScan>();
}
template <>
std::unique_ptr<SpatialIndex> MakeIndex<GridIndex>() {
  return std::make_unique<GridIndex>(32);
}
template <>
std::unique_ptr<SpatialIndex> MakeIndex<RTree>() {
  return std::make_unique<RTree>();
}

template <typename Index>
void BM_Build(benchmark::State& state) {
  const auto items = MakeItems(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto index = MakeIndex<Index>();
    index->Build(items);
    benchmark::DoNotOptimize(index->Size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

template <typename Index>
void BM_CircleQuery(benchmark::State& state) {
  const auto items = MakeItems(static_cast<int>(state.range(0)));
  auto index = MakeIndex<Index>();
  index->Build(items);
  Rng rng(7);
  for (auto _ : state) {
    const Point center{rng.Uniform(), rng.Uniform()};
    benchmark::DoNotOptimize(index->CircleQuery(center, 0.08));
  }
}

BENCHMARK_TEMPLATE(BM_Build, LinearScan)->Arg(1000)->Arg(10000);
BENCHMARK_TEMPLATE(BM_Build, GridIndex)->Arg(1000)->Arg(10000);
BENCHMARK_TEMPLATE(BM_Build, RTree)->Arg(1000)->Arg(10000);

BENCHMARK_TEMPLATE(BM_CircleQuery, LinearScan)->Arg(1000)->Arg(10000);
BENCHMARK_TEMPLATE(BM_CircleQuery, GridIndex)->Arg(1000)->Arg(10000);
BENCHMARK_TEMPLATE(BM_CircleQuery, RTree)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace casc
