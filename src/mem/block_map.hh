/**
 * @file
 * Hash map and set keyed by block address, without an iteration order.
 *
 * A hash container's iteration order depends on its hash function, its
 * bucket count and the standard library, so result-affecting code must
 * never walk one: the order would leak into statistics, error reports
 * and event order. BlockMap and BlockSet give the lookups the directory
 * and the L1D need and have no begin()/end(), so iterating one is a
 * compile error; the one walk is sortedKeys(), which returns the keys in
 * ascending order. spburst-lint bans the standard hash containers from
 * result-affecting code everywhere else.
 *
 * Nodes come from a pool owned by the map: a map grows with the
 * workload's footprint, and the pool turns one allocation per block
 * into a few chunk allocations (an erased block's node is reused by
 * the next one).
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <memory_resource>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hh"

namespace spburst
{

/**
 * Block address -> V, with lookups only. BlockSet (BlockMap<void>) is
 * the set form: it keeps a hash set's smaller nodes, so a set of
 * blocks allocates no more than a standard hash set of them would.
 * The map-only members return `auto` because `V &` is ill-formed for
 * the set form even where their constraint removes them.
 */
template <typename V>
class BlockMap
{
    static constexpr bool kIsSet = std::is_void_v<V>;

  public:
    /** The value of @p block, default-constructed if absent. */
    auto &operator[](Addr block) requires(!kIsSet) { return table_[block]; }

    /** The value of @p block, or nullptr if absent. */
    auto *
    find(Addr block) requires(!kIsSet)
    {
        const auto it = table_.find(block);
        return it == table_.end() ? nullptr : &it->second;
    }

    const auto *
    find(Addr block) const requires(!kIsSet)
    {
        const auto it = table_.find(block);
        return it == table_.end() ? nullptr : &it->second;
    }

    void insert(Addr block) requires kIsSet { table_.insert(block); }

    /** Remove @p block; true if it was present. */
    bool erase(Addr block) { return table_.erase(block) != 0; }

    std::size_t size() const { return table_.size(); }

    void clear() { table_.clear(); }

    /** Every key, ascending. */
    std::vector<Addr>
    sortedKeys() const
    {
        std::vector<Addr> keys;
        keys.reserve(table_.size());
        for (const auto &entry : table_) {
            if constexpr (kIsSet)
                keys.push_back(entry);
            else
                keys.push_back(entry.first);
        }
        std::sort(keys.begin(), keys.end());
        return keys;
    }

  private:
    // spburst-lint: allow(nondeterminism) -- no begin()/end(); the only walk, sortedKeys(), sorts
    using Table = std::conditional_t<kIsSet, std::pmr::unordered_set<Addr>, std::pmr::unordered_map<Addr, V>>;

    /** Declared first so it outlives table_. */
    std::pmr::unsynchronized_pool_resource pool_;
    Table table_{&pool_};
};

/** A set of block addresses. */
using BlockSet = BlockMap<void>;

} // namespace spburst
