#pragma once

/// \file cli.hpp
/// \brief patternlet_runner's command line: one table of flag declarations
/// drives the parser, the PML_* defaults and the --help text.
///
/// parse() turns argv (minus argv[0]) and an environment lookup into an
/// Invocation: what to do, which patternlet, the RunSpec, and the outputs
/// only the runner writes. Every numeric value goes through pml::env's
/// strict parsers, so "-t abc" or "PML_CHAOS=1x" throws a UsageError naming
/// the flag or variable instead of silently becoming 0.

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "core/runner.hpp"
#include "core/timeline.hpp"

namespace pml::cli {

/// What the runner does with the command line.
enum class Action {
  kRun,       ///< Run the patternlet (the default).
  kShow,      ///< `--show SLUG`: metadata and exercise.
  kListing,   ///< `--listing SLUG`: the paper's original C.
  kList,      ///< `--list` (or no arguments): the whole collection.
  kListRacy,  ///< `--list-racy`: the patternlets that stage a race.
  kHelp,      ///< `-h` / `--help`.
};

/// A parsed command line.
struct Invocation {
  Action action = Action::kRun;
  std::string slug;
  RunSpec spec{};
  bool timeline = false;
  TimelineOptions timeline_options{};
  bool explain = false;           ///< Print the critical path.
  std::string trace_json_path;    ///< "-" = stdout.
  std::string metrics_json_path;  ///< "-" = stdout.
  std::string verify_out_path;    ///< Empty = <slug>.pmlsched.
  std::string replay_path;        ///< The schedule already applied to spec.
};

/// One runner flag.
struct Flag {
  const char* short_name;  ///< e.g. -t; nullptr when there is none.
  const char* name;        ///< e.g. --tasks.
  const char* metavar;     ///< Value placeholder; nullptr: takes no value.
  const char* help;        ///< One line.
  /// Variable supplying a default when the flag is absent; nullptr: none.
  const env::Doc* env;
  /// Applies \p value (empty for a valueless flag); \p source names the
  /// flag or variable it came from, for error messages.
  void (*set)(Invocation& inv, const std::string& value, const std::string& source);
};

/// Every flag, in --help order.
std::span<const Flag> flags();

/// Returns the variable's value, or nullptr when unset (std::getenv's shape).
using EnvLookup = std::function<const char*(const char*)>;

/// Parses \p args (argv without the program name). No arguments means
/// --list. --list, --list-racy and --help end parsing where they stand.
/// Flag variables apply only where their flag is absent, so a flag beats
/// its variable. --replay reads the schedule file and its configuration
/// replaces the config flags'. Throws UsageError on any malformed input.
Invocation parse(const std::vector<std::string>& args, const EnvLookup& env);

/// The --help text: every flag, then every PML_* variable a run reads.
std::string help();

}  // namespace pml::cli
