//! An `Open` whose validation points hold a NaN or infinite coordinate is
//! refused with a typed error, as a non-finite training feature is, and
//! the same connection then serves a valid `Open`.

use cp_rpc::{spawn_server, ClientConfig, OpenShard, RpcError, ServerConfig, ShardClient};
use std::time::Duration;

fn open_with(val_x: Vec<Vec<f64>>) -> OpenShard {
    OpenShard {
        start: 0,
        n_labels: 2,
        k: 1,
        kernel: cp_knn::Kernel::NegEuclidean,
        n_threads: 1,
        examples: vec![
            (0, vec![vec![0.0, 1.0]]),
            (1, vec![vec![4.0, 2.0], vec![7.0, 3.0]]),
            (1, vec![vec![9.0, 0.5]]),
        ],
        val_x,
        truth_choice: vec![None, Some(0), None],
        default_choice: vec![None, Some(1), None],
    }
}

#[test]
fn non_finite_validation_points_are_refused_and_the_connection_lives_on() {
    let server = spawn_server(ServerConfig::default()).unwrap();
    let config = ClientConfig {
        read_timeout: Some(Duration::from_secs(60)),
        ..ClientConfig::default()
    };
    let mut client = ShardClient::connect_with(server.addr(), &config).unwrap();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        match client.open(open_with(vec![vec![1.0, 2.0], vec![3.0, bad]])) {
            Err(RpcError::Remote(msg)) => {
                assert!(
                    msg.contains("validation point 1") && msg.contains("non-finite"),
                    "{msg}"
                );
            }
            other => panic!("expected a typed refusal of {bad}, got {other:?}"),
        }
    }
    // the same connection opens a valid shard and scans it
    client
        .open(open_with(vec![vec![1.0, 2.0], vec![3.0, 4.0]]))
        .unwrap();
    let stream = client.scan::<u128>(1, 1, None).unwrap();
    assert_eq!(stream.total, 2);
    client.close().unwrap();
}
