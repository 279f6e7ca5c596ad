#include "loadgen/params.hh"

namespace tpv {
namespace loadgen {

const char *
toString(SendMode m)
{
    return m == SendMode::BlockWait ? "block-wait" : "busy-wait";
}

const char *
toString(CompletionMode m)
{
    return m == CompletionMode::Blocking ? "blocking" : "polling";
}

const char *
toString(MeasurePoint p)
{
    switch (p) {
      case MeasurePoint::InApp:
        return "in-app";
      case MeasurePoint::Kernel:
        return "kernel";
      case MeasurePoint::Nic:
        return "nic";
    }
    return "?";
}

} // namespace loadgen
} // namespace tpv
