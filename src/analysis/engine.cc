#include "analysis/engine.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
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

std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
escapeGithub(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '%')
            out += "%25";
        else if (c == '\n')
            out += "%0A";
        else if (c == '\r')
            out += "%0D";
        else
            out += c;
    }
    return out;
}

} // namespace

RunResult
runLint(const Options &options)
{
    RunResult result;
    Project project;
    for (const std::string &path : options.files) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            result.errors.push_back("cannot read " + path);
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        project.files.push_back(makeFile(path, options.root, buf.str()));
    }
    result.filesAnalyzed = project.files.size();
    buildIndices(project);

    const std::set<std::string> only(options.onlyRules.begin(),
                                     options.onlyRules.end());
    std::vector<const Rule *> active;
    for (const Rule *rule : allRules()) {
        if (only.empty() || only.count(std::string(rule->info().id)))
            active.push_back(rule);
    }
    std::vector<Finding> raw;
    for (const auto &file : project.files)
        for (const Rule *rule : active)
            rule->check(project, *file, raw);

    // Apply per-line suppressions, tracking use so stale ones surface.
    for (Finding &f : raw) {
        bool suppressed = false;
        for (const auto &file : project.files) {
            if (file->relPath != f.file)
                continue;
            for (Suppression &s : file->suppressions) {
                if (s.targetLine == f.line &&
                    s.rules.count(f.ruleId) != 0) {
                    s.used = true;
                    suppressed = true;
                }
            }
            break;
        }
        if (!suppressed)
            result.findings.push_back(std::move(f));
    }

    if (only.empty() ||
        only.count(std::string(kUnusedSuppressionId)) != 0) {
        for (const auto &file : project.files) {
            for (const Suppression &s : file->suppressions) {
                if (s.used)
                    continue;
                std::string rules;
                for (const std::string &r : s.rules)
                    rules += (rules.empty() ? "" : ", ") + r;
                Finding f;
                f.ruleId = std::string(kUnusedSuppressionId);
                f.file = file->relPath;
                f.line = s.commentLine;
                f.col = 1;
                f.message = "suppression allow(" + rules +
                            ") matches no finding on its target line; "
                            "remove the stale comment";
                result.findings.push_back(std::move(f));
            }
        }
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

std::string
renderSarif(const RunResult &result)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": "
           "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"spburst-lint\",\n"
        << "          \"informationUri\": "
           "\"https://github.com/spburst/spburst\",\n"
        << "          \"rules\": [\n";
    bool first = true;
    auto emitRule = [&](std::string_view id, std::string_view summary) {
        if (!first)
            out << ",\n";
        first = false;
        out << "            {\n"
            << "              \"id\": \"" << id << "\",\n"
            << "              \"shortDescription\": { \"text\": \""
            << escapeJson(std::string(summary)) << "\" }\n"
            << "            }";
    };
    for (const Rule *rule : allRules())
        emitRule(rule->info().id, rule->info().summary);
    emitRule(kUnusedSuppressionId,
             "a spburst-lint: allow(...) comment that silences nothing");
    out << "\n          ]\n"
        << "        }\n"
        << "      },\n"
        << "      \"results\": [\n";
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
        const Finding &f = result.findings[i];
        out << "        {\n"
            << "          \"ruleId\": \"" << escapeJson(f.ruleId)
            << "\",\n"
            << "          \"level\": \"error\",\n"
            << "          \"message\": { \"text\": \""
            << escapeJson(f.message) << "\" },\n";
        out << "          \"locations\": [\n"
            << "            {\n"
            << "              \"physicalLocation\": {\n"
            << "                \"artifactLocation\": { \"uri\": \""
            << escapeJson(f.file) << "\" },\n"
            << "                \"region\": { \"startLine\": " << f.line
            << ", \"startColumn\": " << f.col << " }\n"
            << "              }\n"
            << "            }\n"
            << "          ]\n"
            << "        }" << (i + 1 < result.findings.size() ? "," : "")
            << "\n";
    }
    out << "      ]\n"
        << "    }\n"
        << "  ]\n"
        << "}\n";
    return out.str();
}

std::string
renderGithub(const RunResult &result)
{
    std::ostringstream out;
    for (const Finding &f : result.findings) {
        out << "::error file=" << f.file << ",line=" << f.line
            << ",col=" << f.col << "::[" << f.ruleId << "] "
            << escapeGithub(f.message) << '\n';
    }
    return out.str();
}

} // namespace spburst::lint
