/**
 * @file
 * Finite micro-op generators ("segments") used to assemble synthetic
 * workloads.
 *
 * Each segment mimics a code idiom the paper identifies as relevant to
 * store-buffer behaviour (Sec. III): contiguous store bursts produced by
 * memset/memcpy-style code (with optional compiler-shuffled unrolling as
 * in roms), sparse scatter stores, pointer chasing, strided streaming
 * loads, ALU dependence chains, and data-dependent branches whose
 * resolution hangs off a load (the source of wrong-path work).
 *
 * Every segment has one method, `bool produce(MicroOp &op)`: it writes
 * the segment's next micro-op into @p op and returns true, or returns
 * false once the segment is exhausted (leaving @p op untouched).
 * AnySegment holds any one of them by value.
 */

#pragma once

#include <cstdint>
#include <variant>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/uop.hh"

namespace spburst
{

/**
 * Contiguous store burst: memset/clear_page-style writes of @p bytes
 * starting at @p start, in @p storeSize chunks, with loop overhead
 * (one IntAlu + one well-predicted Branch per 8 stores).
 *
 * When @p shuffled is set, stores are emitted in an interleaved order
 * across two adjacent blocks (modelling loop-unrolled code whose
 * addresses are reordered by the compiler, as the paper observes in
 * roms) while still covering every byte.
 */
class StoreBurstSegment
{
  public:
    /** @param descending Emit the stores highest-address-first (stack
     *  push pattern; exercises the backward-burst extension). */
    StoreBurstSegment(Addr start, std::uint64_t bytes,
                      std::uint8_t store_size, Region region,
                      std::uint64_t pc_base, bool shuffled = false,
                      bool descending = false);

    bool produce(MicroOp &op);

  private:
    Addr start_;
    std::uint64_t numStores_;
    std::uint64_t emitted_ = 0;   // stores emitted so far
    std::uint64_t slot_ = 0;      // position within the unrolled body
    std::uint8_t storeSize_;
    Region region_;
    std::uint64_t pcBase_;
    bool shuffled_;
    bool descending_;

    Addr storeAddr(std::uint64_t index) const;
};

/**
 * Memcpy-style burst: for each element, a streaming load from the
 * source region immediately feeding a store to the destination region,
 * plus loop overhead. Exercises simultaneous load- and store-side
 * pressure the way library memcpy does.
 */
class CopyBurstSegment
{
  public:
    CopyBurstSegment(Addr src, Addr dst, std::uint64_t bytes,
                     std::uint8_t elem_size, Region region,
                     std::uint64_t pc_base);

    bool produce(MicroOp &op);

  private:
    Addr src_;
    Addr dst_;
    std::uint64_t numElems_;
    std::uint64_t emitted_ = 0;
    std::uint64_t slot_ = 0;
    std::uint8_t elemSize_;
    Region region_;
    std::uint64_t pcBase_;
};

/**
 * Strided streaming loads (stencil/array sweep) with a dependent ALU op
 * per load and loop overhead.
 */
class StridedLoadSegment
{
  public:
    StridedLoadSegment(Addr start, std::uint64_t stride,
                       std::uint64_t count, bool fp, std::uint64_t pc_base);

    bool produce(MicroOp &op);

  private:
    Addr start_;
    std::uint64_t stride_;
    std::uint64_t count_;
    std::uint64_t emitted_ = 0;
    std::uint64_t slot_ = 0;
    bool fp_;
    std::uint64_t pcBase_;
};

/**
 * Dependent pointer chase: each load's address depends on the previous
 * load's value; addresses are uniform-random over a working set, so the
 * miss ratio tracks the working-set size vs cache capacity.
 */
class PointerChaseSegment
{
  public:
    PointerChaseSegment(Addr base, std::uint64_t ws_bytes,
                        std::uint64_t count, std::uint64_t pc_base,
                        Rng *rng);

    bool produce(MicroOp &op);

  private:
    Addr base_;
    std::uint64_t wsBytes_;
    std::uint64_t count_;
    std::uint64_t emitted_ = 0;
    std::uint64_t slot_ = 0;
    std::uint64_t pcBase_;
    Rng *rng_;
};

/** Arithmetic dependence chains with a configurable int/fp/mul/div mix. */
class AluChainSegment
{
  public:
    AluChainSegment(std::uint64_t count, double fp_fraction,
                    double mul_fraction, double div_fraction,
                    std::uint64_t pc_base, Rng *rng);

    bool produce(MicroOp &op);

  private:
    std::uint64_t count_;
    std::uint64_t emitted_ = 0;
    double fpFraction_;
    double mulFraction_;
    double divFraction_;
    std::uint64_t pcBase_;
    Rng *rng_;
};

/**
 * Data-dependent branches: load (random address in a working set) →
 * ALU → branch that depends on the ALU result and mispredicts with the
 * given probability. This is the wrong-path generator: the deeper the
 * load miss, the longer the branch stays unresolved.
 */
class BranchyLoadSegment
{
  public:
    BranchyLoadSegment(Addr base, std::uint64_t ws_bytes,
                       std::uint64_t count, double mispredict_rate,
                       std::uint64_t pc_base, Rng *rng);

    bool produce(MicroOp &op);

  private:
    Addr base_;
    std::uint64_t wsBytes_;
    std::uint64_t count_;
    std::uint64_t emitted_ = 0;
    std::uint64_t slot_ = 0;
    double mispredictRate_;
    std::uint64_t pcBase_;
    Rng *rng_;
    Addr curAddr_ = 0;
};

/**
 * Sparse scatter stores to random addresses in a working set: store
 * pressure SPB must *not* react to (no contiguous-block pattern).
 */
class ScatterStoreSegment
{
  public:
    ScatterStoreSegment(Addr base, std::uint64_t ws_bytes,
                        std::uint64_t count, std::uint64_t pc_base,
                        Rng *rng);

    bool produce(MicroOp &op);

  private:
    Addr base_;
    std::uint64_t wsBytes_;
    std::uint64_t count_;
    std::uint64_t emitted_ = 0;
    std::uint64_t slot_ = 0;
    std::uint64_t pcBase_;
    Rng *rng_;
};

/** One segment of any kind, held by value (std::monostate: none yet). */
using AnySegment =
    std::variant<std::monostate, StoreBurstSegment, CopyBurstSegment,
                 StridedLoadSegment, PointerChaseSegment, AluChainSegment,
                 BranchyLoadSegment, ScatterStoreSegment>;

} // namespace spburst
