#include "fs/buffer_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dtsim {

BufferCache::BufferCache(std::uint64_t capacity_blocks)
    : capacity_(capacity_blocks),
      slab_(static_cast<std::uint32_t>(capacity_blocks)),
      map_(capacity_blocks)
{
    if (capacity_blocks == 0)
        fatal("BufferCache: capacity must be > 0");
    if (capacity_blocks >= kNullSlot)
        fatal("BufferCache: capacity %llu exceeds the slab slot space",
              static_cast<unsigned long long>(capacity_blocks));
}

bool
BufferCache::readHit(ArrayBlock block)
{
    ++stats_.readLookups;
    const std::uint32_t* slot = map_.find(block);
    if (!slot) {
        ++stats_.readMisses;
        return false;
    }
    Ops::moveToFront(slab_, lru_, *slot);
    return true;
}

void
BufferCache::evictOne(std::vector<ArrayBlock>& writebacks)
{
    const std::uint32_t n = lru_.tail;
    const Entry victim = slab_[n];
    Ops::unlink(slab_, lru_, n);
    slab_[n].dirty = false;  // Free slots read clean for sync().
    slab_.release(n);
    map_.erase(victim.block);
    ++stats_.evictions;
    if (victim.dirty) {
        --dirty_;
        writebacks.push_back(victim.block);
        ++stats_.dirtyWritebacks;
    }
}

void
BufferCache::install(ArrayBlock block,
                     std::vector<ArrayBlock>& writebacks)
{
    const std::uint32_t* slot = map_.find(block);
    if (slot) {
        Ops::moveToFront(slab_, lru_, *slot);
        return;
    }
    if (map_.size() >= capacity_)
        evictOne(writebacks);
    const std::uint32_t n = slab_.allocate();
    slab_[n] = Entry{block, false};
    Ops::pushFront(slab_, lru_, n);
    map_.insert(block, n);
    checkInvariants();
}

bool
BufferCache::write(ArrayBlock block,
                   std::vector<ArrayBlock>& writebacks)
{
    ++stats_.writeLookups;
    const std::uint32_t* slot = map_.find(block);
    if (slot) {
        Entry& e = slab_[*slot];
        if (e.dirty)
            ++stats_.writeMerges;
        else
            ++dirty_;
        e.dirty = true;
        Ops::moveToFront(slab_, lru_, *slot);
        return true;
    }
    if (map_.size() >= capacity_)
        evictOne(writebacks);
    const std::uint32_t n = slab_.allocate();
    slab_[n] = Entry{block, true};
    ++dirty_;
    Ops::pushFront(slab_, lru_, n);
    map_.insert(block, n);
    checkInvariants();
    return false;
}

std::vector<ArrayBlock>
BufferCache::sync()
{
    std::vector<ArrayBlock> dirty;
    dirty.reserve(dirty_);
    // Free slots are clean, so a slot-order scan that stops at the
    // last dirty entry sees exactly the cached dirty blocks, without
    // chasing the LRU links.
    for (std::uint32_t n = 0; dirty_ != 0 && n < slab_.capacity(); ++n) {
        Entry& e = slab_[n];
        if (e.dirty) {
            dirty.push_back(e.block);
            e.dirty = false;
            --dirty_;
        }
    }
    std::sort(dirty.begin(), dirty.end());
    return dirty;
}

std::vector<ArrayBlock>
BufferCache::dropAll()
{
    std::vector<ArrayBlock> dirty = sync();
    slab_.freeAll();
    lru_ = SlabList{};
    map_.clear();
    checkInvariants();
    return dirty;
}

void
BufferCache::audit() const
{
    std::uint64_t listed = 0;
    for (std::uint32_t n = lru_.head; n != kNullSlot; n = slab_.nextOf(n))
        if (++listed > capacity_)
            break;
    std::uint64_t dirty = 0;
    for (std::uint32_t n = 0; n < slab_.capacity(); ++n)
        dirty += slab_[n].dirty;
    if (slab_.freeCount() + lru_.size != capacity_ || listed != lru_.size ||
        map_.size() != lru_.size || map_.size() > capacity_ ||
        dirty != dirty_)
        fatal("BufferCache audit failed: capacity %llu, free %llu, "
              "LRU %llu (%llu linked), table %llu, dirty %llu "
              "(%llu counted)",
              static_cast<unsigned long long>(capacity_),
              static_cast<unsigned long long>(slab_.freeCount()),
              static_cast<unsigned long long>(lru_.size),
              static_cast<unsigned long long>(listed),
              static_cast<unsigned long long>(map_.size()),
              static_cast<unsigned long long>(dirty_),
              static_cast<unsigned long long>(dirty));
}

bool
BufferCache::contains(ArrayBlock block) const
{
    return map_.contains(block);
}

} // namespace dtsim
