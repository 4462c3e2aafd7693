// An LRU *set* with hit/miss statistics: a recency list of keys plus an
// index of list iterators. Not thread-safe; callers that share an instance
// across threads must synchronise.

#ifndef ECLARITY_SRC_UTIL_LRU_H_
#define ECLARITY_SRC_UTIL_LRU_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace eclarity {

// This is what the Fig. 1 web service uses for both the node-local request
// cache and the remote (Redis-like) tier — the hit statistics a cache keeps
// are exactly the knowledge its resource manager contributes as ECV
// probabilities when composing energy interfaces (paper §3).
template <typename K, typename Hash = std::hash<K>>
class LruSet {
 public:
  explicit LruSet(size_t capacity) : capacity_(capacity) {}

  // True on hit (entry promoted to most-recent).
  bool Get(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  // Inserts (or refreshes) an entry, evicting the least-recent on overflow.
  // A capacity of zero disables storage entirely.
  void Put(K key) {
    if (capacity_ == 0) {
      return;
    }
    const auto it = index_.find(key);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.push_front(key);
    index_.emplace(std::move(key), order_.begin());
    if (order_.size() > capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
      ++evictions_;
    }
  }

  bool Contains(const K& key) const { return index_.count(key) > 0; }
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
  std::list<K> order_;  // front = most recent
  std::unordered_map<K, typename std::list<K>::iterator, Hash> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_UTIL_LRU_H_
