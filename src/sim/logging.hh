/**
 * @file
 * Status / error reporting helpers, following the gem5 logging
 * conventions: panic() for internal invariant violations (simulator
 * bugs), fatal() for user-caused configuration errors, warn() and
 * inform() for non-fatal notices.
 */

#ifndef TPV_SIM_LOGGING_HH
#define TPV_SIM_LOGGING_HH

#include <sstream>
#include <string>

namespace tpv {

namespace detail {

/** Concatenate a pack of streamable values into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void panicImpl(const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/**
 * Abort on a condition that should never happen regardless of user
 * input — i.e. a bug in tpv itself. Calls std::abort().
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(detail::concat(std::forward<Args>(args)...));
}

/**
 * Exit on a condition caused by invalid user configuration (bad
 * experiment parameters, impossible hardware configs). Calls exit(1).
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/** Report a suspicious-but-survivable condition ("warn: ..." on
 *  stderr). */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Report normal operating status ("info: ..." on stderr). */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/** panic() unless the given invariant holds. */
#define TPV_ASSERT(cond, ...)                                            \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::tpv::panic("assertion failed: ", #cond, " ", __FILE__,     \
                         ":", __LINE__, " ", ##__VA_ARGS__);             \
        }                                                                \
    } while (0)

} // namespace tpv

#endif // TPV_SIM_LOGGING_HH
