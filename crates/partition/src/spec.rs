//! A cache's spec and the one byte layout every format registers a cache
//! with. The wire's `Register` and `RegisterAt` frames and the journal's
//! `Register` record carry it as [`put_spec`] writes it — capacity u64,
//! tenants u32, grain u64, safety margin f64, vertex tolerance f64,
//! policy u8 (its [`AllocPolicy`] tag), convexify u8 — and [`read_spec`]
//! reads it. [`check_spec`] is the rule on it both formats share; the
//! wire adds its own on top (the margins and a grain bound), so each
//! format applies its rule after [`read_spec`] has parsed the bytes.

use talus_core::codec::{check_count, put_f64, put_u32, put_u64, put_u8, DecodeError, Reader};
use talus_core::limits::WIRE_MAX_TENANTS;
use talus_core::TalusOptions;

use crate::{AllocPolicy, Planner};

/// How a logical cache is planned: its capacity budget, how many tenants
/// share it, and the planner configuration (grain, policy, safety margin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheSpec {
    /// Total capacity budget in lines.
    pub capacity: u64,
    /// Number of tenants (logical partitions) sharing the budget.
    pub tenants: usize,
    /// The planning pipeline (defaults to Talus: hill climbing on hulls,
    /// 5% safety margin, capacity/64 grain).
    pub planner: Planner,
}

impl CacheSpec {
    /// A spec with the default Talus planner at a capacity/64 grain
    /// ([`Planner::for_capacity`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `tenants` is zero.
    pub fn new(capacity: u64, tenants: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(tenants > 0, "need at least one tenant");
        CacheSpec {
            capacity,
            tenants,
            planner: Planner::for_capacity(capacity),
        }
    }

    /// Replaces the planner configuration.
    pub fn with_planner(mut self, planner: Planner) -> Self {
        self.planner = planner;
        self
    }
}

/// The bounds on a spec both formats check, decoders and writers alike:
/// a positive capacity, `1..=`[`WIRE_MAX_TENANTS`] tenants and a
/// positive grain. The margins are not bounded here: the journal reads
/// back whatever a local caller registered (a bad margin fails that
/// cache's plans, not the read), and the wire refuses them on its own.
pub fn check_spec(spec: &CacheSpec) -> Result<(), DecodeError> {
    if spec.capacity == 0 {
        return Err(DecodeError::Malformed("zero capacity"));
    }
    if spec.tenants == 0 {
        return Err(DecodeError::Malformed("zero tenants"));
    }
    check_count(spec.tenants, WIRE_MAX_TENANTS)?;
    if spec.planner.grain == 0 {
        return Err(DecodeError::Malformed("zero planner grain"));
    }
    Ok(())
}

/// Appends `spec`'s body, 38 bytes. Writes what it is given; a writer
/// checks its format's rule first. A tenant count past `u32::MAX` is
/// written as `u32::MAX`, which the reader refuses.
pub fn put_spec(out: &mut Vec<u8>, spec: &CacheSpec) {
    let planner = &spec.planner;
    put_u64(out, spec.capacity);
    put_u32(out, u32::try_from(spec.tenants).unwrap_or(u32::MAX));
    put_u64(out, planner.grain);
    put_f64(out, planner.options.safety_margin);
    put_f64(out, planner.options.vertex_tolerance);
    put_u8(out, planner.policy as u8);
    put_u8(out, u8::from(planner.convexify));
}

/// Reads the body [`put_spec`] writes. Parses only: it refuses an
/// unknown policy tag or convexify flag, and leaves the values to the
/// caller's rule.
pub fn read_spec(r: &mut Reader) -> Result<CacheSpec, DecodeError> {
    let capacity = r.u64()?;
    let tenants = r.u32()? as usize;
    let grain = r.u64()?;
    let options = TalusOptions {
        safety_margin: r.f64()?,
        vertex_tolerance: r.f64()?,
    };
    let policy = match r.u8()? {
        0 => AllocPolicy::Hill,
        1 => AllocPolicy::Lookahead,
        2 => AllocPolicy::Fair,
        3 => AllocPolicy::Imbalanced,
        _ => return Err(DecodeError::Malformed("unknown policy tag")),
    };
    let convexify = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(DecodeError::Malformed("convexify flag not 0/1")),
    };
    Ok(CacheSpec {
        capacity,
        tenants,
        planner: Planner {
            grain,
            options,
            policy,
            convexify,
        },
    })
}
