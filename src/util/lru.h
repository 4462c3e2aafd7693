// A generic intrusive-list LRU map.
//
// The eviction idiom (recency list + index of list iterators) is the one the
// Fig. 1 web-service cache uses; LruMap now backs only LruSet, the
// key-presence view that web service's two cache tiers use. Not
// thread-safe; callers that share an instance across threads must
// synchronise.

#ifndef ECLARITY_SRC_UTIL_LRU_H_
#define ECLARITY_SRC_UTIL_LRU_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>
#include <variant>

namespace eclarity {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruMap {
 public:
  explicit LruMap(size_t capacity) : capacity_(capacity) {}

  // Pointer to the value on hit (entry promoted to most-recent), nullptr on
  // miss. The pointer is invalidated by the next Put().
  V* Get(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    if (it->second != order_.begin()) {
      order_.splice(order_.begin(), order_, it->second);
    }
    return &it->second->second;
  }

  bool Contains(const K& key) const { return index_.count(key) > 0; }

  // Inserts (or refreshes) an entry, evicting the least-recent on overflow.
  // A capacity of zero disables storage entirely.
  void Put(K key, V value) {
    if (capacity_ == 0) {
      return;
    }
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_[std::move(key)] = order_.begin();
    if (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
  }

  size_t size() const { return order_.size(); }
  size_t capacity() const { return capacity_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }
  double HitRate() const {
    const uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
  }
  void ResetStats() {
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
  }

 private:
  size_t capacity_;
  std::list<std::pair<K, V>> order_;  // front = most recent
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash>
      index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

// A key-presence view over LruMap: an LRU *set* with hit/miss statistics.
//
// This is what the Fig. 1 web service uses for both the node-local request
// cache and the remote (Redis-like) tier — the hit statistics a cache keeps
// are exactly the knowledge its resource manager contributes as ECV
// probabilities when composing energy interfaces (paper §3). It replaces
// the former src/apps/lru_cache.h copy of the same idea.
template <typename K, typename Hash = std::hash<K>>
class LruSet {
 public:
  explicit LruSet(size_t capacity) : map_(capacity) {}

  // True on hit (entry promoted to most-recent).
  bool Get(const K& key) { return map_.Get(key) != nullptr; }

  // Inserts (or refreshes) an entry, evicting the least-recent on overflow.
  void Put(K key) { map_.Put(std::move(key), std::monostate{}); }

  bool Contains(const K& key) const { return map_.Contains(key); }
  size_t size() const { return map_.size(); }
  size_t capacity() const { return map_.capacity(); }

  uint64_t hits() const { return map_.hits(); }
  uint64_t misses() const { return map_.misses(); }
  uint64_t evictions() const { return map_.evictions(); }
  double HitRate() const { return map_.HitRate(); }
  void ResetStats() { map_.ResetStats(); }

 private:
  LruMap<K, std::monostate, Hash> map_;
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_UTIL_LRU_H_
