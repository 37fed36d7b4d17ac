/**
 * @file
 * BlockMap and BlockSet against std::map / std::set models: random
 * operator[], insert, erase and find sequences must agree with the
 * model at every step, and sortedKeys() must list the model's keys in
 * ascending order. The static_asserts keep both types non-iterable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <ranges>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "mem/block_map.hh"

namespace spburst
{
namespace
{

static_assert(!std::ranges::range<BlockMap<int>>,
              "a range-for over a BlockMap would walk hash order");
static_assert(!std::ranges::range<const BlockMap<int>>);
static_assert(!std::ranges::range<BlockSet>,
              "a range-for over a BlockSet would walk hash order");

constexpr int kSeeds = 8;
constexpr int kSteps = 4000;

/** A block from a pool of 600, so erases and re-inserts hit often. */
Addr
randomBlock(Rng &rng)
{
    return 0x7000'0000'0000ULL + rng.below(600) * kBlockSize;
}

std::vector<Addr>
keysOf(const std::map<Addr, std::uint64_t> &model)
{
    std::vector<Addr> keys;
    for (const auto &[key, value] : model)
        keys.push_back(key);
    return keys;
}

std::vector<Addr>
keysOf(const std::set<Addr> &model)
{
    return {model.begin(), model.end()};
}

TEST(BlockMap, AgreesWithAnOrderedModel)
{
    for (int seed = 1; seed <= kSeeds; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed));
        BlockMap<std::uint64_t> map;
        std::map<Addr, std::uint64_t> model;
        for (int step = 0; step < kSteps; ++step) {
            const Addr block = randomBlock(rng);
            const auto value = static_cast<std::uint64_t>(step);
            switch (rng.below(3)) {
            case 0:
                map[block] += value;
                model[block] += value;
                break;
            case 1:
                EXPECT_EQ(map.erase(block), model.erase(block) != 0);
                break;
            default: {
                const std::uint64_t *found = map.find(block);
                const auto it = model.find(block);
                ASSERT_EQ(found != nullptr, it != model.end());
                if (found) {
                    EXPECT_EQ(*found, it->second);
                }
            }
            }
            ASSERT_EQ(map.size(), model.size()) << "seed " << seed;
            if (step % 64 == 0) {
                const std::vector<Addr> keys = map.sortedKeys();
                EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
                ASSERT_EQ(keys, keysOf(model)) << "seed " << seed;
            }
        }
        ASSERT_EQ(map.sortedKeys(), keysOf(model));
        map.clear();
        EXPECT_EQ(map.size(), 0u);
        EXPECT_TRUE(map.sortedKeys().empty());
    }
}

TEST(BlockSet, AgreesWithAnOrderedModel)
{
    for (int seed = 1; seed <= kSeeds; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed));
        BlockSet set;
        std::set<Addr> model;
        for (int step = 0; step < kSteps; ++step) {
            const Addr block = randomBlock(rng);
            if (rng.chance(0.5)) {
                set.insert(block);
                model.insert(block);
            } else {
                EXPECT_EQ(set.erase(block), model.erase(block) != 0);
            }
            ASSERT_EQ(set.size(), model.size()) << "seed " << seed;
            if (step % 64 == 0) {
                ASSERT_EQ(set.sortedKeys(), keysOf(model))
                    << "seed " << seed;
            }
        }
        ASSERT_EQ(set.sortedKeys(), keysOf(model));
        set.clear();
        EXPECT_EQ(set.size(), 0u);
    }
}

} // namespace
} // namespace spburst
