// Read-only queries over an immutable version tree (paper §3.2, §4, Fig. 3).
//
// A query reads the root's version pointer once and then runs a *sequential*
// algorithm on the immutable snapshot, "unaffected by concurrent updates".
// These helpers implement the queries the paper evaluates: membership
// (Find), rank, select, range count, plus generic range aggregation and key
// collection.  All cost O(height) except collection, which additionally
// pays for the keys it reports.
//
// The caller must keep the snapshot alive (hold an EbrGuard) for the
// duration of the query; BatTree's public methods and Snapshot handle do so.
// Statically enforced: every query is CBAT_REQUIRES(ebr_capability), so a
// guardless call fails to compile under -DCBAT_THREAD_SAFETY=ON.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/version.h"
#include "util/prefetch.h"

namespace cbat {

// Standard BST search on the version tree (paper Fig. 3, Find).
template <Augmentation Aug>
bool version_contains(const Version<Aug>* v, Key k)
    CBAT_REQUIRES(ebr_capability) {
  while (!v->is_leaf()) {
    v = (k < v->key) ? v->left : v->right;
  }
  return v->key == k;
}

// Number of keys in the whole snapshot.
template <SizedAugmentation Aug>
std::int64_t version_size(const Version<Aug>* root)
    CBAT_REQUIRES(ebr_capability) {
  return Aug::size_of(root->aug);
}

// Number of keys <= k (the paper's rank query).
template <SizedAugmentation Aug>
std::int64_t version_rank(const Version<Aug>* v, Key k)
    CBAT_REQUIRES(ebr_capability) {
  std::int64_t acc = 0;
  while (!v->is_leaf()) {
    if (k < v->key) {
      v = v->left;
    } else {
      acc += Aug::size_of(v->left->aug);
      v = v->right;
    }
  }
  if (!is_sentinel_key(v->key) && v->key <= k) acc += Aug::size_of(v->aug);
  return acc;
}

// Number of keys strictly less than k.
template <SizedAugmentation Aug>
std::int64_t version_rank_less(const Version<Aug>* v, Key k)
    CBAT_REQUIRES(ebr_capability) {
  std::int64_t acc = 0;
  while (!v->is_leaf()) {
    if (k <= v->key) {
      v = v->left;
    } else {
      acc += Aug::size_of(v->left->aug);
      v = v->right;
    }
  }
  if (!is_sentinel_key(v->key) && v->key < k) acc += Aug::size_of(v->aug);
  return acc;
}

// The i-th smallest key, 1-based (the paper's select query).
template <SizedAugmentation Aug>
std::optional<Key> version_select(const Version<Aug>* v, std::int64_t i)
    CBAT_REQUIRES(ebr_capability) {
  if (i < 1 || i > Aug::size_of(v->aug)) return std::nullopt;
  while (!v->is_leaf()) {
    const std::int64_t ls = Aug::size_of(v->left->aug);
    if (i <= ls) {
      v = v->left;
    } else {
      i -= ls;
      v = v->right;
    }
  }
  return v->key;
}

// Number of keys in [lo, hi]; two root-to-leaf descents (paper §7 "range
// queries ... traverse two paths").
template <SizedAugmentation Aug>
std::int64_t version_range_count(const Version<Aug>* root, Key lo, Key hi)
    CBAT_REQUIRES(ebr_capability) {
  if (lo > hi) return 0;
  return version_rank<Aug>(root, hi) - version_rank_less<Aug>(root, lo);
}

namespace detail {

template <Augmentation Aug>
typename Aug::Value range_agg_rec(const Version<Aug>* v, Key lo, Key hi,
                                  Key vmin, Key vmax)
    CBAT_REQUIRES(ebr_capability) {
  if (hi < vmin || vmax < lo) return Aug::sentinel();
  if (lo <= vmin && vmax <= hi) return v->aug;
  if (v->is_leaf()) {
    return (lo <= v->key && v->key <= hi) ? v->aug : Aug::sentinel();
  }
  return Aug::combine(
      range_agg_rec<Aug>(v->left, lo, hi, vmin, v->key - 1),
      range_agg_rec<Aug>(v->right, lo, hi, v->key, vmax));
}

}  // namespace detail

// Aggregate of the augmentation over keys in [lo, hi]: descends at most two
// boundary paths, summing fully-contained subtrees by their stored value.
// Requires lo/hi to be user keys (sentinels contribute the identity).
template <Augmentation Aug>
typename Aug::Value version_range_aggregate(const Version<Aug>* root, Key lo,
                                            Key hi)
    CBAT_REQUIRES(ebr_capability) {
  if (lo > hi) return Aug::sentinel();
  return detail::range_agg_rec<Aug>(root, lo, hi,
                                    std::numeric_limits<Key>::min(), kInf2);
}

// Appends all keys in [lo, hi] to out, in order; stops after limit keys if
// limit > 0.  Cost Theta(reported + height).
template <Augmentation Aug>
void version_collect_range(const Version<Aug>* v, Key lo, Key hi,
                           std::vector<Key>* out, std::size_t limit = 0)
    CBAT_REQUIRES(ebr_capability) {
  if (limit > 0 && out->size() >= limit) return;
  if (v->is_leaf()) {
    if (!is_sentinel_key(v->key) && lo <= v->key && v->key <= hi) {
      out->push_back(v->key);
    }
    return;
  }
  if (lo < v->key) version_collect_range<Aug>(v->left, lo, hi, out, limit);
  if (hi >= v->key) version_collect_range<Aug>(v->right, lo, hi, out, limit);
}

// Largest key <= k, if any (the predecessor-style query of paper §8).
// Two chained descents: remember the last left subtree we skipped past,
// then resolve its rightmost leaf only if the main descent missed.
template <Augmentation Aug>
std::optional<Key> version_floor(const Version<Aug>* v, Key k)
    CBAT_REQUIRES(ebr_capability) {
  const Version<Aug>* cand = nullptr;  // subtree entirely <= k, if any
  while (!v->is_leaf()) {
    if (k < v->key) {
      v = v->left;
    } else {
      cand = v->left;
      v = v->right;
    }
  }
  if (!is_sentinel_key(v->key) && v->key <= k) return v->key;
  if (cand == nullptr) return std::nullopt;
  // cand hangs left of a node with key <= k, so its rightmost leaf is a
  // real key < kInf1 (sentinels live only on the tree's far right spine).
  while (!cand->is_leaf()) cand = cand->right;
  return cand->key;
}

// Smallest key >= k, if any.
template <Augmentation Aug>
std::optional<Key> version_ceiling(const Version<Aug>* v, Key k)
    CBAT_REQUIRES(ebr_capability) {
  const Version<Aug>* cand = nullptr;  // subtree entirely >= k, if any
  while (!v->is_leaf()) {
    if (k < v->key) {
      cand = v->right;
      v = v->left;
    } else {
      v = v->right;
    }
  }
  if (!is_sentinel_key(v->key) && v->key >= k) return v->key;
  if (cand == nullptr) return std::nullopt;
  while (!cand->is_leaf()) cand = cand->left;
  // The candidate's minimum can still be a sentinel (the kInf1 leaf sits in
  // the rightmost real subtree); that means no real key >= k exists.
  if (is_sentinel_key(cand->key)) return std::nullopt;
  return cand->key;
}

// i-th smallest key within [lo, hi] (1-based): a composite order-statistic
// query answered with two rank descents plus one select descent, all on the
// same snapshot.
template <SizedAugmentation Aug>
std::optional<Key> version_select_in_range(const Version<Aug>* root, Key lo,
                                           Key hi, std::int64_t i)
    CBAT_REQUIRES(ebr_capability) {
  if (lo > hi || i < 1) return std::nullopt;
  const std::int64_t before = version_rank_less<Aug>(root, lo);
  const std::int64_t inside = version_rank<Aug>(root, hi) - before;
  if (i > inside) return std::nullopt;
  return version_select<Aug>(root, before + i);
}

// --- unsuccessful updates ---------------------------------------------------

// An unsuccessful update changes no node, so it may linearize at any read
// of Root.version, inside its interval, whose snapshot shows the outcome it
// reports: k present after a failed insert, absent after a failed erase.
// Reads the root's version once and returns it if it shows that outcome,
// else null; the caller then propagates as a successful update would, to
// make the arrival its search observed visible at the root.
//
// `root` is the root of a leaf-oriented node tree whose nodes carry
// `key`, `child[2]` and `version` (BAT's and FR-BST's).  The snapshot walk
// is ~20 dependent misses on a tree larger than the last-level cache, so
// it is fed first: the caller's search just loaded k's node path, so
// re-walking it is cheap and names every path node's version word, then
// every Version those words point to.  A quiet snapshot's search path is
// made of exactly those Versions, so their misses overlap instead of
// queueing behind one another.  The hints never change what the walk
// reads; the feed covers the top kFeedDepth levels of a deeper tree.
template <Augmentation Aug, class NodeT>
const Version<Aug>* root_shows_unchanged(const NodeT* root, Key k,
                                         bool present)
    CBAT_REQUIRES(ebr_capability) {
  constexpr int kFeedDepth = 64;
  const NodeT* path[kFeedDepth];
  int n = 0;
  for (const NodeT* x = root;;) {
    prefetch_span(&x->version, sizeof(x->version));
    path[n++] = x;
    if (n == kFeedDepth || x->is_leaf()) break;
    x = x->child[k < x->key ? 0 : 1].load(std::memory_order_acquire);
  }
  for (int i = 0; i < n; ++i) {
    // relaxed: the pointer only names a prefetch address; the snapshot
    // walk below reaches every Version it reads from the acquire load.
    const auto* v = static_cast<const Version<Aug>*>(
        path[i]->version.load(std::memory_order_relaxed));
    if (v == nullptr) continue;
    // The walk reads left, right and key; right lies between the two.
    prefetch_span(&v->left, sizeof(v->left));
    prefetch_span(&v->key, sizeof(v->key));
  }
  const auto* r = static_cast<const Version<Aug>*>(
      root->version.load(std::memory_order_acquire));
  return version_contains<Aug>(r, k) == present ? r : nullptr;
}

// --- validation helpers (used by tests) ------------------------------------

// Checks paper Invariant 24 (v.aug == combine(children)) and the BST order
// of the version tree.  Returns false on any violation.
template <Augmentation Aug>
bool version_tree_valid(const Version<Aug>* v, Key lo, Key hi)
    CBAT_REQUIRES(ebr_capability) {
  if (v->is_leaf()) {
    if (v->right != nullptr) return false;
    return v->key >= lo && v->key <= hi;
  }
  if (v->right == nullptr) return false;
  if (!(v->aug == Aug::combine(v->left->aug, v->right->aug))) return false;
  return version_tree_valid<Aug>(v->left, lo,
                                 std::min<Key>(hi, v->key - 1)) &&
         version_tree_valid<Aug>(v->right, std::max<Key>(lo, v->key), hi);
}

}  // namespace cbat
