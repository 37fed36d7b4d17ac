// Fixture: full tick/skip stat parity (also through per-context
// `t.stats.x` chains) plus a justified ff-exempt write —
// ff-stat-parity must stay silent.
namespace fx
{

struct DrainStats
{
    unsigned long busyCycles = 0;
    unsigned long drained = 0;
    unsigned long bursts = 0;
};

class DrainMeter
{
  public:
    // spburst-lint: ff(tick)
    void tick()
    {
        ++stats_.busyCycles;
        applyDrain();
        // spburst-lint: ff-exempt -- bursts only start on new stores,
        // and a quiescent cycle accepts none
        ++stats_.bursts;
    }

    // spburst-lint: ff(skip)
    void skipCycles(unsigned long n)
    {
        stats_.busyCycles += n;
        stats_.drained += n;
    }

  private:
    void applyDrain()
    {
        ++stats_.drained;
    }

    DrainStats stats_;
};

class ThreadedMeter
{
  public:
    // spburst-lint: ff(tick)
    void tick()
    {
        for (Context &t : ctx_)
            ++t.stats.busyCycles;
    }

    // spburst-lint: ff(skip)
    void skipCycles(unsigned long n)
    {
        for (Context &t : ctx_)
            t.stats.busyCycles += n;
    }

  private:
    struct Context
    {
        DrainStats stats;
    };

    Context ctx_[2];
};

} // namespace fx
