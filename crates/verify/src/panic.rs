//! Structured-panic capture shared by every harness: the case runner in
//! `tfgc_vm::case` (torture matrix, fuzz campaign) and the serve
//! torture.
//!
//! The robustness contract distinguishes two kinds of panic: a
//! *structured* fail-fast panic (one of [`crate::STRUCTURED_PANIC_PREFIXES`],
//! carrying site/seq/strategy context — an injected fault was *detected*)
//! and a *raw* panic (anything else — always a harness failure). This
//! module is the one implementation of the payload rendering and the
//! classification, so a new panic shape only has to be taught to one
//! place.

use std::panic::{catch_unwind, AssertUnwindSafe, UnwindSafe};

/// A panic caught by [`capture_panics`], classified and annotated with
/// the caller's case context.
#[derive(Debug, Clone)]
pub struct CapturedPanic {
    /// The panic payload rendered as text (`&str` and `String` payloads
    /// verbatim, anything else a placeholder).
    pub message: String,
    /// Does the payload start with a structured fail-fast prefix?
    pub structured: bool,
    /// Caller-supplied case context (workload, strategy, seed, …) so a
    /// report line can identify the failing case without re-running it.
    pub context: String,
}

impl CapturedPanic {
    /// `"<context>: <message>"` — the torture/fuzz report line.
    pub fn describe(&self) -> String {
        if self.context.is_empty() {
            self.message.clone()
        } else {
            format!("{}: {}", self.context, self.message)
        }
    }
}

/// Renders a panic payload as text: `&str` and `String` payloads come
/// through verbatim, anything else becomes a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f`, converting any panic into a classified [`CapturedPanic`]
/// with `context` attached. The caller decides what a structured vs raw
/// panic means for its contract; this only captures and classifies.
///
/// # Errors
///
/// The captured panic, when `f` panicked.
pub fn capture_panics<T>(
    context: &str,
    f: impl FnOnce() -> T + UnwindSafe,
) -> Result<T, CapturedPanic> {
    catch_unwind(f).map_err(|payload| {
        let message = panic_message(payload.as_ref());
        CapturedPanic {
            structured: crate::is_structured_panic(&message),
            message,
            context: context.to_string(),
        }
    })
}

/// [`capture_panics`] for closures over `&mut` state (the common shape in
/// both harnesses: the VM under test is built outside the closure). The
/// `AssertUnwindSafe` is sound for the harness use case because a panicked
/// case's state is discarded, never reused.
///
/// # Errors
///
/// The captured panic, when `f` panicked.
pub fn capture_panics_mut<T>(context: &str, f: impl FnOnce() -> T) -> Result<T, CapturedPanic> {
    capture_panics(context, AssertUnwindSafe(f))
}

/// Runs `f` with the global panic hook silenced (expected fail-fast cases
/// would otherwise spam stderr), restoring the previous hook afterwards.
/// Use around a whole matrix, not per case: the hook is process-global.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(prev_hook);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_pass_through() {
        let r = capture_panics("ctx", || 41 + 1);
        assert_eq!(r.unwrap(), 42);
    }

    #[test]
    fn raw_panics_are_classified_raw() {
        let r = with_quiet_panics(|| {
            capture_panics("churn / compiled / seed 3", || -> u32 {
                panic!("index out of bounds: the len is 4");
            })
        });
        let p = r.unwrap_err();
        assert!(!p.structured);
        assert!(p.message.contains("index out of bounds"));
        assert_eq!(
            p.describe(),
            "churn / compiled / seed 3: index out of bounds: the len is 4"
        );
    }

    #[test]
    fn structured_panics_are_classified_structured() {
        let r = with_quiet_panics(|| {
            capture_panics("case", || -> u32 {
                panic!("heap corruption: discriminant 99 at address 5000");
            })
        });
        let p = r.unwrap_err();
        assert!(p.structured);
    }

    #[test]
    fn string_payloads_come_through_verbatim() {
        let r = with_quiet_panics(|| {
            capture_panics("", || -> u32 {
                panic!("{}", String::from("owned payload"))
            })
        });
        let p = r.unwrap_err();
        assert_eq!(p.message, "owned payload");
        assert_eq!(p.describe(), "owned payload");
    }
}
