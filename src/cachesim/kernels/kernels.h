// Name stub of the deleted probe-kernel layer.
//
// The wide observation batch is stored lane-major, so the transpose and
// column-gather kernels this directory used to dispatch are gone.  The
// end-to-end benchmark (perfbench/) still prints active().name in its run
// context and stores it in its checkpoint mirror, and it is changed only
// together with its baseline; this header keeps it building until then.
// Nothing outside perfbench/ may include it (CI checks), so it can be
// deleted with those two uses.
#pragma once

namespace grinch::cachesim::kernels {

struct Ops {
  const char* name = "none";
};

[[nodiscard]] inline const Ops& active() noexcept {
  static constexpr Ops kNone{};
  return kNone;
}

}  // namespace grinch::cachesim::kernels
