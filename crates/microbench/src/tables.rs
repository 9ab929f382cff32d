//! Tables I and II.

use tile_arch::device::Device;

/// Table I: the basic OpenSHMEM subset and where this workspace
/// implements each entry. Returned as (category, function, rust path)
/// rows; `tests/api_coverage.rs` asserts every row resolves.
pub fn table1() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("Setup and Initialization", "start_pes()", "tshmem::runtime::launch"),
        ("Environment Query", "_my_pe()", "tshmem::api::my_pe"),
        ("Environment Query", "_num_pes()", "tshmem::api::num_pes"),
        ("Memory Allocation", "shmalloc()", "tshmem::api::shmalloc"),
        ("Memory Allocation", "shfree()", "tshmem::api::shfree"),
        ("Elemental Put/Get", "shmem_int_p()", "tshmem::api::shmem_p::<i32>"),
        ("Elemental Put/Get", "shmem_int_g()", "tshmem::api::shmem_g::<i32>"),
        ("Block Put/Get", "shmem_putmem()", "tshmem::api::shmem_putmem"),
        ("Block Put/Get", "shmem_getmem()", "tshmem::api::shmem_getmem"),
        ("Strided Put/Get", "shmem_int_iput()", "tshmem::api::shmem_iput::<i32>"),
        ("Strided Put/Get", "shmem_int_iget()", "tshmem::api::shmem_iget::<i32>"),
        ("Barrier", "shmem_barrier()", "tshmem::api::shmem_barrier"),
        ("Barrier", "shmem_barrier_all()", "tshmem::api::shmem_barrier_all"),
        ("Communications Sync", "shmem_fence()", "tshmem::api::shmem_fence"),
        ("Communications Sync", "shmem_quiet()", "tshmem::api::shmem_quiet"),
        ("Point-to-Point Sync", "shmem_wait()", "tshmem::api::shmem_wait"),
        ("Point-to-Point Sync", "shmem_wait_until()", "tshmem::api::shmem_wait_until"),
        ("Broadcast", "shmem_broadcast32()", "tshmem::api::shmem_broadcast::<u32>"),
        ("Collection", "shmem_collect32()", "tshmem::api::shmem_collect::<u32>"),
        ("Collection", "shmem_fcollect32()", "tshmem::api::shmem_fcollect::<u32>"),
        ("Reduction", "shmem_int_sum_to_all()", "tshmem::api::shmem_sum_to_all::<i32>"),
        ("Reduction", "shmem_long_prod_to_all()", "tshmem::api::shmem_prod_to_all::<i64>"),
        ("Atomic Swap", "shmem_swap()", "tshmem::api::shmem_swap::<i64>"),
    ]
}

/// Table II: architectural comparison, rendered from the device
/// descriptors.
pub fn table2() -> String {
    let gx = Device::tile_gx8036();
    let pro = Device::tilepro64();
    let mut out = String::from("# Table II: architecture comparison\n");
    let rows: Vec<(String, String, String)> = vec![
        (
            "tiles".into(),
            format!("{} tiles of {}-bit VLIW", gx.grid.tiles(), gx.word_bits()),
            format!("{} tiles of {}-bit VLIW", pro.grid.tiles(), pro.word_bits()),
        ),
        (
            "caches per tile".into(),
            format!("{}k L1i, {}k L1d, {}k L2", gx.l1i_bytes / 1024, gx.l1d_bytes / 1024, gx.l2_bytes / 1024),
            format!("{}k L1i, {}k L1d, {}k L2", pro.l1i_bytes / 1024, pro.l1d_bytes / 1024, pro.l2_bytes / 1024),
        ),
        (
            "mesh interconnect".into(),
            format!("{} Tbps, {} dynamic networks", gx.mesh_tbps, gx.dynamic_networks),
            format!("{} Tbps, {} networks", pro.mesh_tbps, pro.dynamic_networks),
        ),
        (
            "clock".into(),
            format!("{} MHz", gx.clock.hz() / 1_000_000),
            format!("{} MHz", pro.clock.hz() / 1_000_000),
        ),
        (
            "memory controllers".into(),
            format!("{} DDR3", gx.ddr_controllers),
            format!("{} DDR2", pro.ddr_controllers),
        ),
    ];
    out.push_str(&format!("{:22}\t{:34}\t{}\n", "property", gx.name, pro.name));
    for (k, a, b) in rows {
        out.push_str(&format!("{k:22}\t{a:34}\t{b}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_covers_every_table_i_category() {
        let t = table1();
        assert!(t.len() >= 23);
        for cat in [
            "Setup and Initialization",
            "Environment Query",
            "Memory Allocation",
            "Elemental Put/Get",
            "Block Put/Get",
            "Strided Put/Get",
            "Barrier",
            "Communications Sync",
            "Point-to-Point Sync",
            "Broadcast",
            "Collection",
            "Reduction",
            "Atomic Swap",
        ] {
            assert!(t.iter().any(|(c, _, _)| *c == cat), "missing {cat}");
        }
    }

    #[test]
    fn table2_mentions_both_devices() {
        let t = table2();
        assert!(t.contains("TILE-Gx8036"));
        assert!(t.contains("TILEPro64"));
        assert!(t.contains("256k L2"));
        assert!(t.contains("64k L2"));
    }
}
