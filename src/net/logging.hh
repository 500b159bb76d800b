/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic() is for internal invariant violations (bugs in this library);
 * fatal() is for user errors (bad configuration, invalid arguments).
 */

#ifndef BGPBENCH_NET_LOGGING_HH
#define BGPBENCH_NET_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

namespace bgpbench
{

/**
 * Exception thrown for conditions caused by the caller (bad
 * configuration, malformed input that the caller promised was valid).
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/**
 * Exception thrown for internal invariant violations. Seeing one of
 * these means there is a bug in bgpbench itself.
 */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/** Report a user-caused error. Throws FatalError. */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

/** Report an internal invariant violation. Throws PanicError. */
[[noreturn]] inline void
panic(const std::string &msg)
{
    throw PanicError("bgpbench internal error: " + msg);
}

/**
 * Assert a library invariant; panics with the message on failure.
 * Takes a view so hot-path checks with literal messages cost one
 * branch: the message becomes a std::string only when the check fails.
 */
inline void
panicIf(bool condition, std::string_view msg)
{
    if (condition) [[unlikely]]
        panic(std::string(msg));
}

} // namespace bgpbench

#endif // BGPBENCH_NET_LOGGING_HH
