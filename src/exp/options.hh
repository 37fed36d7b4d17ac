/**
 * @file
 * The option table: one row per command-line option that writes a
 * SystemConfig, shared by spburst_run, spburst_sweep and the bench
 * drivers, and CommandLine, the front end that picks rows from it.
 * Key rows change exp::configKey, so a job's key names everything it
 * simulates; Host rows change no key and no simulated number
 * (tests/test_options.cc holds every row to its scope).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/system.hh"

namespace spburst::exp
{

/** Whether an option's value is part of exp::configKey. */
enum class Scope : std::uint8_t
{
    Key,  //!< changes what a job simulates, hence its key
    Host, //!< changes host-side behaviour only, never a result
};

/** One row of the option table. */
struct ConfigOption
{
    std::string name;   //!< spelled --name (a flag) or --name=VALUE
    std::string syntax; //!< value syntax for --help; empty for a flag
    std::string help;
    Scope scope;
    /** Whole-string, range-checked parse of @p value into @p cfg (a
     *  flag gets ""); fatal on a malformed value. */
    void (*parse)(SystemConfig &cfg, std::string_view value);
};

/** Every row, in --help order. */
const std::vector<ConfigOption> &configOptions();

/** The row called @p name; panics if the table has none. */
const ConfigOption &configOption(std::string_view name);

/** Strict unsigned decimal: all of @p text, within [lo, hi]. */
std::uint64_t parseCount(std::string_view text, std::uint64_t lo,
                         std::uint64_t hi);

/** Strict finite, non-negative decimal number. */
double parseReal(std::string_view text);

/**
 * A command-line front end: rows picked from the table plus its own
 * host-side rows, applied in argument order, with --help generated
 * from them. Every value is parsed as the command line is read, so a
 * malformed one is fatal, naming the option, before any job runs.
 */
class CommandLine
{
  public:
    /** @p tool names the front end in the unknown-option error;
     *  @p synopsis opens --help. */
    CommandLine(std::string tool, std::string synopsis)
        : tool_(std::move(tool)), synopsis_(std::move(synopsis))
    {
    }

    /** Table row @p name; each occurrence applies to @p cfg. */
    void config(std::string_view name, SystemConfig &cfg);

    /** Table row @p name as a comma list of grid values (the last
     *  occurrence wins), for an Axis. */
    void axis(std::string_view name, std::vector<std::string> &values);

    /** Row "workload" (a suite -- all, sb-bound, parsec -- or a comma
     *  list; the last occurrence wins) or "trace" (repeatable) into
     *  @p names as workload names. */
    void workloads(std::string_view name, std::vector<std::string> &names);

    /** A front-end-only row; @p syntax is empty for a flag. */
    void
    option(std::string name, std::string syntax, std::string help,
           std::function<void(std::string_view)> parse)
    {
        rows_.push_back({std::move(name), std::move(syntax),
                         std::move(help), std::move(parse)});
    }

    /** A front-end-only flag that sets @p on. */
    void
    flag(std::string name, std::string help, bool &on)
    {
        option(std::move(name), "", std::move(help),
               [&on](std::string_view) { on = true; });
    }

    /** A front-end-only whole-number row in [lo, hi] into @p n. */
    void
    count(std::string name, std::string help, unsigned &n,
          std::uint64_t lo, std::uint64_t hi)
    {
        option(std::move(name), "N", std::move(help),
               [&n, lo, hi](std::string_view v) {
                   n = static_cast<unsigned>(parseCount(v, lo, hi));
               });
    }

    /** Apply @p argv in order; --help prints help() and exits 0. */
    void parse(int argc, char **argv) const;

    std::string help() const;

  private:
    struct Row
    {
        std::string name;
        std::string syntax;
        std::string help;
        std::function<void(std::string_view)> parse;
    };

    std::string tool_;
    std::string synopsis_;
    std::vector<Row> rows_;
};

} // namespace spburst::exp
