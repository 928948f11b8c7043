// Strict environment-variable parsing for the QIP_* knobs.
//
// QIP_ROUNDS / QIP_JOBS / QIP_SEED silently falling back on a typo
// ("QIP_ROUNDS=1O") is worse than an error: the run completes with the
// wrong replication count and nobody notices.  These helpers accept an
// unset variable (returning the fallback) but reject a malformed one
// with a message on stderr and exit code 2.
#pragma once

#include <cstdint>

namespace qip {

/// Reads `name` as a strictly positive decimal integer.  Unset → fallback;
/// malformed, zero or out of range → stderr diagnostic + exit(2).
std::uint32_t env_positive_u32(const char* name, std::uint32_t fallback);

/// Reads `name` as a non-negative decimal integer (zero allowed — retry
/// counts legitimately say "never retry").  Unset → fallback; malformed or
/// out of range → exit(2).
std::uint32_t env_u32(const char* name, std::uint32_t fallback);

/// Reads `name` as an unsigned 64-bit integer (decimal, or hex/octal with
/// the usual 0x/0 prefixes).  Unset → fallback; malformed → exit(2).
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// Parses a command-line value with the same strictness and diagnostics
/// as env_positive_u32 (`what` names the flag in the error message).
std::uint32_t parse_positive_u32(const char* what, const char* text);

/// Parses a command-line value with the same strictness as env_u32.
std::uint32_t parse_u32(const char* what, const char* text);

/// Parses a command-line value with the same strictness as env_u64.
std::uint64_t parse_u64(const char* what, const char* text);

/// Parses a command-line value as a finite decimal number (the whole text,
/// no trailing characters); anything else → stderr diagnostic + exit(2).
double parse_double(const char* what, const char* text);

/// Reads `name` as a switch: on/1/true enable, off/0/false disable
/// (case-sensitive, matching the documented spellings).  Unset → fallback;
/// anything else → stderr diagnostic + exit(2).  Used for QIP_AUDIT_TRACE:
/// a typo'd switch silently picking the other behaviour is exactly the
/// failure mode strict parsing exists to prevent.
bool env_bool(const char* name, bool fallback);

/// Parses a command-line/env switch value with env_bool's strictness.
bool parse_bool(const char* what, const char* text);

}  // namespace qip
