#include "analysis/engine.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "analysis/project.hh"

namespace spburst::lint
{

namespace
{

bool
findingLess(const Finding &a, const Finding &b)
{
    if (a.file != b.file)
        return a.file < b.file;
    if (a.line != b.line)
        return a.line < b.line;
    if (a.col != b.col)
        return a.col < b.col;
    return a.ruleId < b.ruleId;
}

/** Run every rule over @p file and append what its suppressions leave,
 *  plus one finding per suppression that silenced nothing. */
void
lintFile(FileContext &file, std::vector<Finding> &out)
{
    std::vector<Finding> raw;
    for (const Rule *rule : allRules())
        rule->check(file, raw);

    for (Finding &f : raw) {
        bool suppressed = false;
        for (Suppression &s : file.suppressions) {
            if (s.targetLine == f.line && s.rules.count(f.ruleId) != 0) {
                s.used = true;
                suppressed = true;
            }
        }
        if (!suppressed)
            out.push_back(std::move(f));
    }

    for (const Suppression &s : file.suppressions) {
        if (s.used)
            continue;
        std::string rules;
        for (const std::string &r : s.rules)
            rules += (rules.empty() ? "" : ", ") + r;
        Finding f;
        f.ruleId = std::string(kUnusedSuppressionId);
        f.file = file.relPath;
        f.line = s.commentLine;
        f.col = 1;
        f.message = "suppression allow(" + rules +
                    ") matches no finding on its target line; "
                    "remove the stale comment";
        out.push_back(std::move(f));
    }
}

} // namespace

RunResult
lintTree(const std::string &root)
{
    RunResult result;
    for (const std::string &path : filesFromTree(root)) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            result.errors.push_back("cannot read " + path);
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        lintFile(*makeFile(path, root, buf.str()), result.findings);
        ++result.filesAnalyzed;
    }
    std::sort(result.findings.begin(), result.findings.end(),
              findingLess);
    return result;
}

std::string
renderText(const RunResult &result)
{
    std::ostringstream out;
    for (const Finding &f : result.findings) {
        out << f.file << ':' << f.line << ':' << f.col << ": error: ["
            << f.ruleId << "] " << f.message << '\n';
    }
    return out.str();
}

} // namespace spburst::lint
