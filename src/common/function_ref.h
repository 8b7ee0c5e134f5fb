// FunctionRef: a non-owning reference to a callable.
//
// For callbacks that are only invoked during the call that receives them
// (the remote engine's validate hook). Unlike std::function it never
// copies the callable, so a lambda of any capture size costs no heap
// allocation. The referenced callable must outlive every invocation;
// passing a temporary lambda straight into the call satisfies that.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace catfish {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : call_([](Target t, Args... args) -> R {
          using Fn = std::remove_reference_t<F>;
          if constexpr (std::is_function_v<Fn>) {
            return std::invoke(reinterpret_cast<Fn*>(t.fn),
                               std::forward<Args>(args)...);
          } else {
            return std::invoke(*static_cast<Fn*>(t.obj),
                               std::forward<Args>(args)...);
          }
        }) {
    if constexpr (std::is_function_v<std::remove_reference_t<F>>) {
      target_.fn = reinterpret_cast<void (*)()>(&f);
    } else {
      target_.obj =
          const_cast<void*>(static_cast<const void*>(std::addressof(f)));
    }
  }

  R operator()(Args... args) const {
    return call_(target_, std::forward<Args>(args)...);
  }

 private:
  // A free function is referenced through its pointer (which need not
  // fit in a void*), any other callable through its address.
  union Target {
    void* obj;
    void (*fn)();
  };

  Target target_;
  R (*call_)(Target, Args...);
};

}  // namespace catfish
