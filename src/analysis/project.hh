/**
 * @file
 * The files spburst-lint analyzes: discovery under a repository root,
 * lexing, directory classification and suppression-comment parsing.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/model.hh"

namespace spburst::lint
{

/** All *.cc / *.hh files under @p root's src/, bench/, and tools/
 *  directories. Sorted and absolute. */
std::vector<std::string> filesFromTree(const std::string &root);

/** Lex and classify already-read file content. @p root anchors the
 *  relative path used in findings. */
std::unique_ptr<FileContext> makeFile(const std::string &path,
                                      const std::string &root,
                                      std::string source);

} // namespace spburst::lint
