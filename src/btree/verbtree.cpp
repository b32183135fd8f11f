#include "btree/verbtree.h"

#include <algorithm>
#include <cassert>

#include "util/backoff.h"

namespace cbat {

namespace {

// relaxed: payload words (keys, counts) are ordered by the node seqlock —
// readers validate() behind an acquire fence, writers store only after
// try_lock()'s release fence and publish with unlock()'s release — so the
// individual accesses need atomicity, not ordering.
template <class T>
T ld(const std::atomic<T>& a) {
  return a.load(std::memory_order_relaxed);
}
template <class T>
void st(std::atomic<T>& a, T v) {
  // relaxed: as for ld() above.
  a.store(v, std::memory_order_relaxed);
}

// Child pointers: acquire loads and release stores, so a reader that loads
// a pointer sees the child's initialization (see verbtree.h).
template <class T>
T* child_ld(const std::atomic<T*>& a) {
  return a.load(std::memory_order_acquire);
}
template <class T>
void child_st(std::atomic<T*>& a, T* p) {
  a.store(p, std::memory_order_release);
}

// Copies n payload words or child pointers from src to dst; the caller
// holds the locks (or sole ownership) of both nodes.
template <class T>
void copy_words(const std::atomic<T>* src, int n, std::atomic<T>* dst) {
  for (int i = 0; i < n; ++i) st(dst[i], ld(src[i]));
}
template <class T>
void copy_children(const std::atomic<T*>* src, int n, std::atomic<T*>* dst) {
  for (int i = 0; i < n; ++i) child_st(dst[i], child_ld(src[i]));
}

}  // namespace

VerBTree::VerBTree() {
  head_leaf_ = new Leaf;
  root_.store(head_leaf_, std::memory_order_release);
  track(head_leaf_);
}

VerBTree::~VerBTree() {
  for (NodeBase* n : all_nodes_mu_protected_) {
    if (n->leaf) {
      delete static_cast<Leaf*>(n);
    } else {
      delete static_cast<Inner*>(n);
    }
  }
}

void VerBTree::track(NodeBase* n) {
  std::lock_guard<std::mutex> g(nodes_mu_);
  all_nodes_mu_protected_.push_back(n);
}

std::uint64_t VerBTree::stable_version(const NodeBase* n) {
  Backoff bo;
  std::uint64_t v = n->version.load(std::memory_order_acquire);
  while (is_locked(v)) {
    bo.pause();
    v = n->version.load(std::memory_order_acquire);
  }
  return v;
}

bool VerBTree::validate(const NodeBase* n, std::uint64_t v) {
  // Orders the caller's relaxed payload loads before the re-check.
  std::atomic_thread_fence(std::memory_order_acquire);
  // relaxed: the fence above provides the ordering; any later write
  // changes the word and fails the compare.
  return n->version.load(std::memory_order_relaxed) == v;
}

bool VerBTree::try_lock(NodeBase* n, std::uint64_t expected) {
  if (is_locked(expected)) return false;
  if (!n->version.compare_exchange_strong(expected, expected + 1,
                                          std::memory_order_acquire)) {
    return false;
  }
  // Orders the lock holder's relaxed payload stores after the claim, so a
  // reader that sees one of them also sees the odd version.
  std::atomic_thread_fence(std::memory_order_release);
  return true;
}

void VerBTree::unlock(NodeBase* n) {
  n->version.fetch_add(1, std::memory_order_release);  // odd -> even
}

int VerBTree::child_index(const Inner* n, Key k) {
  // children[i] covers keys < keys[i]; the last child covers the rest.
  // Acquire: every child slot up to the count is initialized (verbtree.h).
  const int count = n->count.load(std::memory_order_acquire);
  int i = 0;
  while (i < count && k >= ld(n->keys[i])) ++i;
  return i;
}

int VerBTree::leaf_lower_bound(const Leaf* n, Key k) {
  const int count = ld(n->count);
  int i = 0;
  while (i < count && ld(n->keys[i]) < k) ++i;
  return i;
}

void VerBTree::grow_root(NodeBase* old_root) {
  // Caller holds root_mu_ and old_root's write lock and has verified
  // root_ == old_root.  Splits old_root under a brand-new root.
  auto* new_root = new Inner;
  track(new_root);
  if (old_root->leaf) {
    auto* l = static_cast<Leaf*>(old_root);
    auto* r = new Leaf;
    track(r);
    const int count = ld(l->count);
    const int half = count / 2;
    copy_words(l->keys + half, count - half, r->keys);
    st(r->count, count - half);
    st(l->count, half);
    r->next.store(l->next.load(std::memory_order_acquire),
                  std::memory_order_release);
    l->next.store(r, std::memory_order_release);
    st(new_root->count, 1);
    st(new_root->keys[0], ld(r->keys[0]));
    child_st<NodeBase>(new_root->children[0], l);
    child_st<NodeBase>(new_root->children[1], r);
  } else {
    auto* n = static_cast<Inner*>(old_root);
    auto* r = new Inner;
    track(r);
    const int count = ld(n->count);
    const int mid = count / 2;  // separator key moves up
    const Key sep = ld(n->keys[mid]);
    copy_words(n->keys + mid + 1, count - mid - 1, r->keys);
    copy_children(n->children + mid + 1, count - mid, r->children);
    st(r->count, count - mid - 1);
    st(n->count, mid);
    st(new_root->count, 1);
    st(new_root->keys[0], sep);
    child_st<NodeBase>(new_root->children[0], n);
    child_st<NodeBase>(new_root->children[1], r);
  }
  root_.store(new_root, std::memory_order_release);
}

// Inserts separator `sep` and right child `r` into `parent` at child_slot.
// Caller holds parent's write lock; parent is not full.  The count grows
// last, with a release store, after the children it covers (verbtree.h).
void VerBTree::insert_separator(Inner* parent, int child_slot, Key sep,
                                NodeBase* r) {
  const int count = ld(parent->count);
  for (int i = count; i > child_slot; --i) {
    st(parent->keys[i], ld(parent->keys[i - 1]));
    child_st(parent->children[i + 1], child_ld(parent->children[i]));
  }
  st(parent->keys[child_slot], sep);
  child_st(parent->children[child_slot + 1], r);
  parent->count.store(count + 1, std::memory_order_release);
}

void VerBTree::split_inner(Inner* parent, int child_slot, Inner* child) {
  // Caller holds write locks on parent and child; parent is not full.
  auto* r = new Inner;
  track(r);
  const int count = ld(child->count);
  const int mid = count / 2;
  const Key sep = ld(child->keys[mid]);
  copy_words(child->keys + mid + 1, count - mid - 1, r->keys);
  copy_children(child->children + mid + 1, count - mid, r->children);
  st(r->count, count - mid - 1);
  st(child->count, mid);
  insert_separator(parent, child_slot, sep, r);
}

void VerBTree::split_leaf(Inner* parent, int child_slot, Leaf* child) {
  // Caller holds write locks on parent and child; parent is not full.
  auto* r = new Leaf;
  track(r);
  const int count = ld(child->count);
  const int half = count / 2;
  copy_words(child->keys + half, count - half, r->keys);
  st(r->count, count - half);
  st(child->count, half);
  r->next.store(child->next.load(std::memory_order_acquire),
                std::memory_order_release);
  child->next.store(r, std::memory_order_release);
  insert_separator(parent, child_slot, ld(r->keys[0]), r);
}

bool VerBTree::is_full(const NodeBase* n) {
  return n->leaf ? ld(static_cast<const Leaf*>(n)->count) == kLeafCap
                 : ld(static_cast<const Inner*>(n)->count) == kFanout;
}

bool VerBTree::insert(Key k) {
  assert(k <= kMaxUserKey);
  Backoff bo;
restart:
  NodeBase* n = root_.load(std::memory_order_acquire);
  std::uint64_t v = stable_version(n);
  if (n != root_.load(std::memory_order_acquire)) goto restart;

  // Root full?  Grow the tree by one level (rare).
  if (is_full(n)) {
    std::lock_guard<std::mutex> g(root_mu_);
    if (root_.load(std::memory_order_acquire) == n && try_lock(n, v)) {
      grow_root(n);
      unlock(n);
    }
    bo.pause();
    goto restart;
  }

  {
    while (!n->leaf) {
      auto* inner = static_cast<Inner*>(n);
      const int i = child_index(inner, k);
      NodeBase* child = child_ld(inner->children[i]);
      const std::uint64_t vc = stable_version(child);
      if (!validate(n, v)) goto restart;
      // Proactively split full children so leaf splits never cascade.
      if (is_full(child)) {
        if (!try_lock(n, v)) {
          bo.pause();
          goto restart;
        }
        if (!try_lock(child, vc)) {
          unlock(n);
          bo.pause();
          goto restart;
        }
        if (child->leaf) {
          split_leaf(inner, i, static_cast<Leaf*>(child));
        } else {
          split_inner(inner, i, static_cast<Inner*>(child));
        }
        unlock(child);
        unlock(n);
        goto restart;
      }
      n = child;
      v = vc;
    }

    auto* leaf = static_cast<Leaf*>(n);
    // Leaf is not full (proactive splitting and the root check guarantee it).
    const int pos = leaf_lower_bound(leaf, k);
    if (pos < ld(leaf->count) && ld(leaf->keys[pos]) == k) {
      // Validate the read before declaring "already present".
      if (!validate(n, v)) goto restart;
      return false;
    }
    if (!try_lock(n, v)) {
      bo.pause();
      goto restart;
    }
    // Re-find position under the lock (contents may have changed between
    // the optimistic read and the upgrade only if version changed, in which
    // case try_lock failed; still, recompute for clarity).
    const int p2 = leaf_lower_bound(leaf, k);
    const int count = ld(leaf->count);
    if (p2 < count && ld(leaf->keys[p2]) == k) {
      unlock(n);
      return false;
    }
    for (int i = count; i > p2; --i) {
      st(leaf->keys[i], ld(leaf->keys[i - 1]));
    }
    st(leaf->keys[p2], k);
    st(leaf->count, count + 1);
    unlock(n);
    return true;
  }
}

bool VerBTree::erase(Key k) {
  assert(k <= kMaxUserKey);
  Backoff bo;
restart:
  NodeBase* n = root_.load(std::memory_order_acquire);
  std::uint64_t v = stable_version(n);
  if (n != root_.load(std::memory_order_acquire)) goto restart;
  while (!n->leaf) {
    auto* inner = static_cast<Inner*>(n);
    NodeBase* child = child_ld(inner->children[child_index(inner, k)]);
    const std::uint64_t vc = stable_version(child);
    if (!validate(n, v)) goto restart;
    n = child;
    v = vc;
  }
  auto* leaf = static_cast<Leaf*>(n);
  const int pos = leaf_lower_bound(leaf, k);
  if (pos >= ld(leaf->count) || ld(leaf->keys[pos]) != k) {
    if (!validate(n, v)) goto restart;
    return false;
  }
  if (!try_lock(n, v)) {
    bo.pause();
    goto restart;
  }
  const int p2 = leaf_lower_bound(leaf, k);
  const int count = ld(leaf->count);
  if (p2 >= count || ld(leaf->keys[p2]) != k) {
    unlock(n);
    return false;
  }
  for (int i = p2; i + 1 < count; ++i) {
    st(leaf->keys[i], ld(leaf->keys[i + 1]));
  }
  st(leaf->count, count - 1);
  unlock(n);
  return true;
}

bool VerBTree::contains(Key k) const {
  assert(k <= kMaxUserKey);
  Backoff bo;
  std::uint64_t v;
  while (true) {
    const Leaf* leaf = locate_leaf(k, &v);
    const int pos = leaf_lower_bound(leaf, k);
    const bool found = pos < ld(leaf->count) && ld(leaf->keys[pos]) == k;
    if (validate(leaf, v)) return found;
    bo.pause();
  }
}

const VerBTree::Leaf* VerBTree::locate_leaf(Key k,
                                            std::uint64_t* leaf_version) const {
  Backoff bo;
restart:
  NodeBase* n = root_.load(std::memory_order_acquire);
  std::uint64_t v = stable_version(n);
  if (n != root_.load(std::memory_order_acquire)) goto restart;
  while (!n->leaf) {
    auto* inner = static_cast<Inner*>(n);
    NodeBase* child = child_ld(inner->children[child_index(inner, k)]);
    const std::uint64_t vc = stable_version(child);
    if (!validate(n, v)) {
      bo.pause();
      goto restart;
    }
    n = child;
    v = vc;
  }
  *leaf_version = v;
  return static_cast<const Leaf*>(n);
}

int VerBTree::read_leaf(const Leaf* leaf, std::uint64_t* v, Key* keys,
                        const Leaf** next) {
  Backoff bo;
  while (true) {
    *next = leaf->next.load(std::memory_order_acquire);
    const int count = std::min(ld(leaf->count), kLeafCap);
    for (int i = 0; i < count; ++i) keys[i] = ld(leaf->keys[i]);
    if (!is_locked(*v) && validate(leaf, *v)) return count;
    bo.pause();
    *v = stable_version(leaf);
  }
}

template <class Visit>
void VerBTree::scan(Key from, Visit&& visit) const {
  std::uint64_t v;
  const Leaf* leaf = locate_leaf(from, &v);
  Key keys[kLeafCap];
  while (true) {
    const Leaf* next;
    const int count = read_leaf(leaf, &v, keys, &next);
    if (!visit(static_cast<const Key*>(keys), count) || next == nullptr) {
      return;
    }
    leaf = next;
    v = stable_version(leaf);
  }
}

std::int64_t VerBTree::range_count(Key lo, Key hi) const {
  if (lo > hi) return 0;
  std::int64_t total = 0;
  scan(lo, [&](const Key* keys, int count) {
    for (int i = 0; i < count; ++i) {
      if (keys[i] > hi) return false;
      if (keys[i] >= lo) ++total;
    }
    return true;
  });
  return total;
}

std::vector<Key> VerBTree::range_collect(Key lo, Key hi,
                                         std::size_t limit) const {
  std::vector<Key> out;
  if (lo > hi) return out;
  scan(lo, [&](const Key* keys, int count) {
    for (int i = 0; i < count; ++i) {
      if (keys[i] > hi) return false;
      if (keys[i] >= lo) out.push_back(keys[i]);
      if (limit > 0 && out.size() >= limit) return false;
    }
    return true;
  });
  return out;
}

std::int64_t VerBTree::rank(Key k) const {
  // Brute force: scan the chain from the head counting keys <= k, as the
  // paper prescribes for unaugmented structures.
  return range_count(std::numeric_limits<Key>::min(), k);
}

std::int64_t VerBTree::size() const {
  return range_count(std::numeric_limits<Key>::min(), kMaxUserKey);
}

std::optional<Key> VerBTree::select(std::int64_t i) const {
  if (i < 1) return std::nullopt;
  std::optional<Key> found;
  std::int64_t seen = 0;
  scan(std::numeric_limits<Key>::min(), [&](const Key* keys, int count) {
    if (seen + count >= i) {
      found = keys[i - seen - 1];
      return false;
    }
    seen += count;
    return true;
  });
  return found;
}

int VerBTree::height_slow() const {
  int h = 0;
  const NodeBase* n = root_.load(std::memory_order_acquire);
  while (!n->leaf) {
    n = child_ld(static_cast<const Inner*>(n)->children[0]);
    ++h;
  }
  return h;
}

}  // namespace cbat
