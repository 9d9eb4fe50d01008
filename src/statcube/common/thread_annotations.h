/// \file
/// \brief Clang thread-safety annotation macros (no-ops on other compilers).
///
/// These macros attach Clang's `-Wthread-safety` capability analysis to the
/// concurrency-heavy classes in this repo (exec/task_scheduler, the result
/// cache, the obs serving layer, ...). The analysis proves *at compile time*
/// which mutex guards which field and that every access happens under the
/// right lock — turning the serial==parallel determinism contract and the
/// result cache's locking from test-time hopes (TSan) into build-time
/// guarantees. See DESIGN.md §8 and
/// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html.
///
/// Usage pattern (see common/mutex.h for the annotated mutex types):
///
/// \code
///   class Account {
///     statcube::Mutex mu_;
///     int64_t balance_ STATCUBE_GUARDED_BY(mu_);
///
///     void Deposit(int64_t n) {
///       statcube::MutexLock lock(mu_);
///       balance_ += n;  // OK: mu_ held
///     }
///     void Audit() STATCUBE_REQUIRES(mu_);  // caller must hold mu_
///   };
/// \endcode
///
/// On GCC (the default local toolchain) every macro expands to nothing, so
/// the annotations cost nothing and cannot break the tier-1 build; the CI
/// `thread-safety` job compiles the tree with clang++ `-Wthread-safety
/// -Werror` to enforce them.

#ifndef STATCUBE_COMMON_THREAD_ANNOTATIONS_H_
#define STATCUBE_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define STATCUBE_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef STATCUBE_THREAD_ANNOTATION_
#define STATCUBE_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

/// Declares a class to be a capability (a lock). Applied to statcube::Mutex.
#define STATCUBE_CAPABILITY(name) \
  STATCUBE_THREAD_ANNOTATION_(capability(name))

/// Declares an RAII class that acquires a capability in its constructor and
/// releases it in its destructor (statcube::MutexLock).
#define STATCUBE_SCOPED_CAPABILITY \
  STATCUBE_THREAD_ANNOTATION_(scoped_lockable)

/// The annotated field may only be read or written while holding `x`.
#define STATCUBE_GUARDED_BY(x) STATCUBE_THREAD_ANNOTATION_(guarded_by(x))

/// The annotated pointer field may be dereferenced only while holding `x`
/// (the pointer itself is unguarded).
#define STATCUBE_PT_GUARDED_BY(x) \
  STATCUBE_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Callers of the annotated function must hold `...` exclusively.
#define STATCUBE_REQUIRES(...) \
  STATCUBE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Callers of the annotated function must hold `...` at least shared.
#define STATCUBE_REQUIRES_SHARED(...) \
  STATCUBE_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// The annotated function acquires `...` exclusively and does not release it.
#define STATCUBE_ACQUIRE(...) \
  STATCUBE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The annotated function acquires `...` shared and does not release it.
#define STATCUBE_ACQUIRE_SHARED(...) \
  STATCUBE_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// The annotated function releases `...` (held on entry, not on exit).
#define STATCUBE_RELEASE(...) \
  STATCUBE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The annotated function releases the shared capability `...`.
#define STATCUBE_RELEASE_SHARED(...) \
  STATCUBE_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// The annotated function tries to acquire `...`; the first argument is the
/// return value meaning success (e.g. STATCUBE_TRY_ACQUIRE(true)).
#define STATCUBE_TRY_ACQUIRE(...) \
  STATCUBE_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Callers must NOT hold `...` (the function acquires it itself; catches
/// self-deadlock at compile time).
#define STATCUBE_EXCLUDES(...) \
  STATCUBE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// The annotated function asserts (at runtime) that `...` is held; the
/// analysis then treats it as held.
#define STATCUBE_ASSERT_CAPABILITY(...) \
  STATCUBE_THREAD_ANNOTATION_(assert_capability(__VA_ARGS__))

/// The annotated function returns a reference to the capability `x`.
#define STATCUBE_RETURN_CAPABILITY(x) \
  STATCUBE_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the access is safe.
#define STATCUBE_NO_THREAD_SAFETY_ANALYSIS \
  STATCUBE_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // STATCUBE_COMMON_THREAD_ANNOTATIONS_H_
