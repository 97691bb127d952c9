#include "spatial/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "geo/rect.h"

namespace casc {

struct RTree::Node {
  bool is_leaf = true;
  Rect bounds = Rect::Empty();
  std::vector<SpatialItem> items;                // leaf payload
  std::vector<std::unique_ptr<Node>> children;   // internal payload

  size_t EntryCount() const {
    return is_leaf ? items.size() : children.size();
  }

  void RecomputeBounds() {
    bounds = Rect::Empty();
    if (is_leaf) {
      for (const auto& item : items) bounds.Extend(item.location);
    } else {
      for (const auto& child : children) bounds.Extend(child->bounds);
    }
  }
};

RTree::RTree(int max_entries, int min_entries)
    : max_entries_(max_entries), min_entries_(min_entries) {
  CASC_CHECK_GE(min_entries, 2);
  CASC_CHECK_LE(min_entries, max_entries / 2);
}

RTree::~RTree() = default;

int RTree::Height() const {
  if (!root_) return 0;
  int height = 1;
  const RTree::Node* node = root_.get();
  while (!node->is_leaf) {
    node = node->children.front().get();
    ++height;
  }
  return height;
}

namespace {

/// Quadratic-split seed selection: the pair of rectangles wasting the most
/// area when grouped together.
template <typename GetRect, typename Entry>
std::pair<size_t, size_t> PickSeeds(const std::vector<Entry>& entries,
                                    GetRect get_rect) {
  size_t seed_a = 0, seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      const Rect ri = get_rect(entries[i]);
      const Rect rj = get_rect(entries[j]);
      const double waste = ri.Union(rj).Area() - ri.Area() - rj.Area();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }
  return {seed_a, seed_b};
}

/// Distributes `entries` into two groups with Guttman's quadratic split.
/// Ensures each group receives at least `min_entries` entries.
template <typename GetRect, typename Entry>
void QuadraticSplit(std::vector<Entry> entries, int min_entries,
                    GetRect get_rect, std::vector<Entry>* group_a,
                    std::vector<Entry>* group_b) {
  CASC_CHECK_GE(entries.size(), 2u);
  auto [ia, ib] = PickSeeds(entries, get_rect);
  Rect bounds_a = get_rect(entries[ia]);
  Rect bounds_b = get_rect(entries[ib]);
  group_a->push_back(std::move(entries[ia]));
  group_b->push_back(std::move(entries[ib]));
  // Remove the two seeds (higher index first to keep the other valid).
  entries.erase(entries.begin() + static_cast<ptrdiff_t>(std::max(ia, ib)));
  entries.erase(entries.begin() + static_cast<ptrdiff_t>(std::min(ia, ib)));

  while (!entries.empty()) {
    const size_t remaining = entries.size();
    // If one group must take all remaining entries to reach min_entries,
    // give them to it outright.
    if (group_a->size() + remaining ==
        static_cast<size_t>(min_entries)) {
      for (auto& entry : entries) group_a->push_back(std::move(entry));
      return;
    }
    if (group_b->size() + remaining ==
        static_cast<size_t>(min_entries)) {
      for (auto& entry : entries) group_b->push_back(std::move(entry));
      return;
    }
    // Pick the entry with the greatest preference for one group.
    size_t best_index = 0;
    double best_diff = -1.0;
    double best_enlarge_a = 0.0, best_enlarge_b = 0.0;
    for (size_t i = 0; i < entries.size(); ++i) {
      const Rect r = get_rect(entries[i]);
      const double enlarge_a = bounds_a.Enlargement(r);
      const double enlarge_b = bounds_b.Enlargement(r);
      const double diff = std::abs(enlarge_a - enlarge_b);
      if (diff > best_diff) {
        best_diff = diff;
        best_index = i;
        best_enlarge_a = enlarge_a;
        best_enlarge_b = enlarge_b;
      }
    }
    Entry chosen = std::move(entries[best_index]);
    entries.erase(entries.begin() + static_cast<ptrdiff_t>(best_index));
    const Rect r = get_rect(chosen);
    bool to_a;
    if (best_enlarge_a != best_enlarge_b) {
      to_a = best_enlarge_a < best_enlarge_b;
    } else if (bounds_a.Area() != bounds_b.Area()) {
      to_a = bounds_a.Area() < bounds_b.Area();
    } else {
      to_a = group_a->size() <= group_b->size();
    }
    if (to_a) {
      bounds_a.Extend(r);
      group_a->push_back(std::move(chosen));
    } else {
      bounds_b.Extend(r);
      group_b->push_back(std::move(chosen));
    }
  }
}

}  // namespace

void RTree::Insert(const SpatialItem& item) {
  if (!root_) {
    root_ = std::make_unique<RTree::Node>();
    root_->is_leaf = true;
  }
  // Descend to a leaf, remembering the path for bounds maintenance.
  std::vector<RTree::Node*> path;
  RTree::Node* node = root_.get();
  for (;;) {
    path.push_back(node);
    node->bounds.Extend(item.location);
    if (node->is_leaf) break;
    // Least-enlargement child; area, then child count break ties.
    RTree::Node* best = nullptr;
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (const auto& child : node->children) {
      const double enlarge =
          child->bounds.Enlargement(Rect::FromPoint(item.location));
      const double area = child->bounds.Area();
      if (enlarge < best_enlarge ||
          (enlarge == best_enlarge && area < best_area)) {
        best_enlarge = enlarge;
        best_area = area;
        best = child.get();
      }
    }
    node = best;
  }
  node->items.push_back(item);
  ++size_;

  // Split upward while nodes overflow.
  for (size_t level = path.size(); level-- > 0;) {
    RTree::Node* current = path[level];
    if (current->EntryCount() <= static_cast<size_t>(max_entries_)) break;

    auto sibling = std::make_unique<RTree::Node>();
    sibling->is_leaf = current->is_leaf;
    if (current->is_leaf) {
      std::vector<SpatialItem> group_a, group_b;
      QuadraticSplit(
          std::move(current->items), min_entries_,
          [](const SpatialItem& it) { return Rect::FromPoint(it.location); },
          &group_a, &group_b);
      current->items = std::move(group_a);
      sibling->items = std::move(group_b);
    } else {
      std::vector<std::unique_ptr<RTree::Node>> group_a, group_b;
      QuadraticSplit(
          std::move(current->children), min_entries_,
          [](const std::unique_ptr<RTree::Node>& child) {
            return child->bounds;
          },
          &group_a, &group_b);
      current->children = std::move(group_a);
      sibling->children = std::move(group_b);
    }
    current->RecomputeBounds();
    sibling->RecomputeBounds();

    if (level == 0) {
      // Grow a new root.
      auto new_root = std::make_unique<RTree::Node>();
      new_root->is_leaf = false;
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(sibling));
      new_root->RecomputeBounds();
      root_ = std::move(new_root);
    } else {
      path[level - 1]->children.push_back(std::move(sibling));
      path[level - 1]->RecomputeBounds();
    }
  }
}

void RTree::CollectInto(const RTree::Node* node,
                        std::vector<SpatialItem>* out) {
  if (node->is_leaf) {
    out->insert(out->end(), node->items.begin(), node->items.end());
    return;
  }
  for (const auto& child : node->children) CollectInto(child.get(), out);
}

void RTree::InsertBatch(const std::vector<SpatialItem>& items) {
  if (items.empty()) return;
  if (size_ > 0 && items.size() < size_ / 2) {
    for (const auto& item : items) Insert(item);
    return;
  }
  std::vector<SpatialItem> all;
  all.reserve(size_ + items.size());
  if (root_) CollectInto(root_.get(), &all);
  all.insert(all.end(), items.begin(), items.end());
  Build(all);
}

bool RTree::RemoveFrom(RTree::Node* node, const SpatialItem& item) {
  if (!node->bounds.Contains(item.location)) return false;
  if (node->is_leaf) {
    for (size_t i = 0; i < node->items.size(); ++i) {
      const SpatialItem& candidate = node->items[i];
      if (candidate.id == item.id &&
          candidate.location.x == item.location.x &&
          candidate.location.y == item.location.y) {
        // Leaf order is not part of any query contract (results are
        // sorted by id), so swap-with-last keeps the erase O(1).
        node->items[i] = node->items.back();
        node->items.pop_back();
        return true;
      }
    }
    return false;
  }
  for (size_t c = 0; c < node->children.size(); ++c) {
    if (!RemoveFrom(node->children[c].get(), item)) continue;
    if (node->children[c]->EntryCount() == 0) {
      node->children[c] = std::move(node->children.back());
      node->children.pop_back();
    }
    // Bounds are left loose on purpose: they still contain everything
    // below, so queries stay correct; the removed_since_build() counter
    // lets callers rebuild once the slack accumulates.
    return true;
  }
  return false;
}

bool RTree::Remove(const SpatialItem& item) {
  if (!root_) return false;
  if (!RemoveFrom(root_.get(), item)) return false;
  --size_;
  ++removed_since_build_;
  if (root_->EntryCount() == 0) {
    root_.reset();
  } else {
    // Collapse single-child internal roots so Height() stays honest and
    // leaf depth stays uniform.
    while (!root_->is_leaf && root_->children.size() == 1) {
      root_ = std::move(root_->children.front());
    }
  }
  return true;
}

void RTree::Build(const std::vector<SpatialItem>& items) {
  root_.reset();
  removed_since_build_ = 0;
  size_ = items.size();
  if (items.empty()) return;

  // Sort-Tile-Recursive packing: sort by x, slice into vertical strips of
  // ~sqrt(n/M) each, sort each strip by y, and cut leaves of M entries.
  std::vector<SpatialItem> sorted = items;
  const size_t capacity = static_cast<size_t>(max_entries_);
  const size_t leaf_count =
      (sorted.size() + capacity - 1) / capacity;
  const size_t strips = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(leaf_count))));
  const size_t strip_size =
      ((sorted.size() + strips - 1) / strips + capacity - 1) / capacity *
      capacity;

  std::sort(sorted.begin(), sorted.end(),
            [](const SpatialItem& a, const SpatialItem& b) {
              return a.location.x < b.location.x;
            });

  std::vector<std::unique_ptr<RTree::Node>> level;
  for (size_t begin = 0; begin < sorted.size(); begin += strip_size) {
    const size_t end = std::min(begin + strip_size, sorted.size());
    std::sort(sorted.begin() + static_cast<ptrdiff_t>(begin),
              sorted.begin() + static_cast<ptrdiff_t>(end),
              [](const SpatialItem& a, const SpatialItem& b) {
                return a.location.y < b.location.y;
              });
    for (size_t i = begin; i < end; i += capacity) {
      auto leaf = std::make_unique<RTree::Node>();
      leaf->is_leaf = true;
      const size_t leaf_end = std::min(i + capacity, end);
      leaf->items.assign(sorted.begin() + static_cast<ptrdiff_t>(i),
                         sorted.begin() + static_cast<ptrdiff_t>(leaf_end));
      leaf->RecomputeBounds();
      level.push_back(std::move(leaf));
    }
  }

  // Pack parent levels until a single root remains.
  while (level.size() > 1) {
    std::vector<std::unique_ptr<RTree::Node>> parents;
    // Sort nodes by bounding-box center (x then tile by y) for locality.
    std::sort(level.begin(), level.end(),
              [](const std::unique_ptr<RTree::Node>& a,
                 const std::unique_ptr<RTree::Node>& b) {
                return a->bounds.Center().x < b->bounds.Center().x;
              });
    const size_t parent_count =
        (level.size() + capacity - 1) / capacity;
    const size_t parent_strips = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(parent_count))));
    const size_t parent_strip_size =
        ((level.size() + parent_strips - 1) / parent_strips + capacity - 1) /
        capacity * capacity;
    for (size_t begin = 0; begin < level.size(); begin += parent_strip_size) {
      const size_t end = std::min(begin + parent_strip_size, level.size());
      std::sort(level.begin() + static_cast<ptrdiff_t>(begin),
                level.begin() + static_cast<ptrdiff_t>(end),
                [](const std::unique_ptr<RTree::Node>& a,
                   const std::unique_ptr<RTree::Node>& b) {
                  return a->bounds.Center().y < b->bounds.Center().y;
                });
      for (size_t i = begin; i < end; i += capacity) {
        auto parent = std::make_unique<RTree::Node>();
        parent->is_leaf = false;
        const size_t child_end = std::min(i + capacity, end);
        for (size_t c = i; c < child_end; ++c) {
          parent->children.push_back(std::move(level[c]));
        }
        parent->RecomputeBounds();
        parents.push_back(std::move(parent));
      }
    }
    level = std::move(parents);
  }
  root_ = std::move(level.front());
}

void RTree::CircleQueryInto(const Point& center, double radius,
                            std::vector<int64_t>* out) const {
  out->clear();
  if (!root_ || radius < 0.0) return;
  const Rect box = Rect::FromCircle(center, radius);
  const double r2 = radius * radius;
  // Per-thread traversal stack: parallel streaming splice issues this
  // query concurrently from many threads, each needing its own stack;
  // thread_local keeps the hot path allocation-free after warm-up.
  static thread_local std::vector<const RTree::Node*> stack;
  stack.clear();
  stack.push_back(root_.get());
  while (!stack.empty()) {
    const RTree::Node* node = stack.back();
    stack.pop_back();
    if (!node->bounds.Intersects(box)) continue;
    if (node->bounds.MinSquaredDistance(center) > r2) continue;
    if (node->is_leaf) {
      for (const auto& item : node->items) {
        if (SquaredDistance(center, item.location) <= r2) {
          out->push_back(item.id);
        }
      }
    } else {
      for (const auto& child : node->children) stack.push_back(child.get());
    }
  }
  std::sort(out->begin(), out->end());
}

namespace {

void CheckNode(const RTree::Node* node, int max_entries, int min_entries,
               bool is_root, int depth, int* leaf_depth, size_t* item_count);

}  // namespace

void RTree::CheckInvariants() const {
  if (!root_) {
    CASC_CHECK_EQ(size_, 0u);
    return;
  }
  int leaf_depth = -1;
  size_t item_count = 0;
  CheckNode(root_.get(), max_entries_, min_entries_, /*is_root=*/true, 0,
            &leaf_depth, &item_count);
  CASC_CHECK_EQ(item_count, size_);
}

namespace {

void CheckNode(const RTree::Node* node, int max_entries, int min_entries,
               bool is_root, int depth, int* leaf_depth,
               size_t* item_count) {
  CASC_CHECK_LE(node->EntryCount(), static_cast<size_t>(max_entries));
  if (!is_root) {
    CASC_CHECK_GE(node->EntryCount(), 1u);
  }
  (void)min_entries;  // STR packing does not guarantee min fill; fan-out
                      // upper bound and geometry are the hard invariants.
  if (node->is_leaf) {
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else {
      CASC_CHECK_EQ(*leaf_depth, depth) << "leaves at different depths";
    }
    for (const auto& item : node->items) {
      CASC_CHECK(node->bounds.Contains(item.location));
      ++*item_count;
    }
  } else {
    for (const auto& child : node->children) {
      CASC_CHECK(node->bounds.Contains(child->bounds));
      CheckNode(child.get(), max_entries, min_entries, /*is_root=*/false,
                depth + 1, leaf_depth, item_count);
    }
  }
}

}  // namespace

}  // namespace casc
