/**
 * @file
 * Project assembly for spburst-lint: file loading, directory
 * classification, suppression-comment parsing, and the project-wide
 * type index pass that runs before any rule.
 */

#pragma once

#include <memory>
#include <string>

#include "analysis/model.hh"

namespace spburst::lint
{

/** Lex and classify already-read file content. @p root anchors the
 *  relative path used in findings. */
std::unique_ptr<FileContext> makeFile(const std::string &path,
                                      const std::string &root,
                                      std::string source);

/** Build the TypeIndex over @p project.files. */
void buildIndices(Project &project);

} // namespace spburst::lint
