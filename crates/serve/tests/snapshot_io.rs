//! Filesystem behaviour of [`write_snapshot`]: the write is atomic (temp
//! file, sync, rename), so a successful write leaves exactly the snapshot
//! behind and a failed one leaves nothing behind.

use ripples_core::{ImmParams, SampleEngine, SelectEngine};
use ripples_diffusion::{DiffusionModel, StorageConfig};
use ripples_graph::generators::erdos_renyi;
use ripples_graph::{Graph, WeightModel};
use ripples_serve::snapshot::{encode_snapshot, read_snapshot, write_snapshot};
use ripples_serve::{SketchService, SnapshotError};
use std::fs;
use std::path::PathBuf;

fn graph() -> Graph {
    erdos_renyi(80, 400, WeightModel::UniformRandom { seed: 3 }, false, 9)
}

fn service(graph: &Graph) -> SketchService {
    SketchService::build(
        graph,
        ImmParams::new(4, 0.5, DiffusionModel::IndependentCascade, 5),
        SelectEngine::Sequential,
        SampleEngine::Reference,
        StorageConfig::default(),
    )
}

/// A fresh, empty directory unique to this process and test.
fn scratch_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ripples-snapshot-io-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn entries(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("list scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn successful_write_leaves_only_the_snapshot_and_restores_bitwise() {
    let g = graph();
    let mut svc = service(&g);
    let dir = scratch_dir("ok");
    let path = dir.join("sketch.snap");
    write_snapshot(&path, &svc).expect("snapshot writes");
    // Overwriting an existing snapshot goes through the same rename.
    write_snapshot(&path, &svc).expect("snapshot overwrites");
    assert_eq!(entries(&dir), vec!["sketch.snap".to_string()]);

    let on_disk = fs::read(&path).expect("read snapshot");
    assert_eq!(on_disk, encode_snapshot(&svc).expect("encode"));
    let restored = read_snapshot(&path, &g).expect("snapshot restores");
    assert_eq!(restored.params, *svc.params());
    let mut from_disk =
        SketchService::restore_from(&path, &g, SelectEngine::Sequential).expect("service restores");
    for k in [1, 4] {
        assert_eq!(svc.topk(k).unwrap().0, from_disk.topk(k).unwrap().0);
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_write_reports_io_and_leaves_no_temp_file() {
    let g = graph();
    let svc = service(&g);
    let dir = scratch_dir("fail");
    // The target is an existing directory: the temp file writes fine but
    // cannot be renamed over it.
    let target = dir.join("occupied");
    fs::create_dir(&target).expect("create target dir");
    let err = write_snapshot(&target, &svc).expect_err("rename over a directory must fail");
    assert!(matches!(err, SnapshotError::Io { .. }), "got {err:?}");
    assert_eq!(entries(&dir), vec!["occupied".to_string()]);
    assert!(entries(&target).is_empty());
    fs::remove_dir_all(&dir).ok();
}
