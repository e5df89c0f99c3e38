#include "engine/result_cache.h"

#include <iterator>
#include <utility>

namespace sigsub {
namespace engine {

ResultCache::ResultCache(size_t capacity) : capacity_(capacity) {}

size_t ResultCache::size() const {
  MutexLock lock(mutex_);
  return lru_.size();
}

std::optional<CachedResult> ResultCache::Lookup(const CacheKey& key) {
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return it->second->value;
}

void ResultCache::Insert(const CacheKey& key, CachedResult value) {
  if (capacity_ == 0) return;
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(value)});
  index_.emplace(key, lru_.begin());
  ++stats_.insertions;
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void ResultCache::Clear() {
  MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
  // A cleared cache restarts its accounting: stale hit/miss/insertion/
  // eviction counters would otherwise misreport the hit rate of every
  // batch that follows the clear.
  stats_ = CacheStats{};
}

std::vector<CacheEntry> ResultCache::Export() const {
  MutexLock lock(mutex_);
  std::vector<CacheEntry> entries;
  entries.reserve(lru_.size());
  for (const Entry& entry : lru_) {
    entries.push_back(CacheEntry{entry.key, entry.value});
  }
  return entries;
}

void ResultCache::Import(const std::vector<CacheEntry>& entries) {
  if (capacity_ == 0) return;
  MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
  // Entries arrive MRU-first; appending to the back in that order
  // reconstitutes the recency list exactly.
  for (const CacheEntry& entry : entries) {
    if (lru_.size() >= capacity_) break;
    if (index_.contains(entry.key)) continue;
    lru_.push_back(Entry{entry.key, entry.value});
    index_.emplace(entry.key, std::prev(lru_.end()));
  }
}

CacheStats ResultCache::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace engine
}  // namespace sigsub
