//! Public entry points refuse bad caller input with a typed error, never a
//! panic; each case matches its exact variant.

use chiron::serving::ServeError;
use chiron::{FleetConfig, FleetSimulation};
use chiron_deploy::planners;
use chiron_ml::{
    FitError, ForestConfig, GnnConfig, GnnRegressor, LstmConfig, LstmRegressor, PredictError,
    RandomForest, RegressionTree, TreeConfig,
};

type Graph = (Vec<Vec<f64>>, Vec<Vec<f64>>);

fn all_features(n: usize) -> Vec<usize> {
    (0..n).collect()
}

fn tree(x: &[Vec<f64>], y: &[f64]) -> Result<RegressionTree, FitError> {
    RegressionTree::fit(x, y, TreeConfig::default(), &mut all_features)
}

fn forest(x: &[Vec<f64>], y: &[f64]) -> Result<RandomForest, FitError> {
    let config = ForestConfig {
        n_trees: 2,
        ..ForestConfig::default()
    };
    RandomForest::fit(x, y, config)
}

fn lstm(x: &[Vec<Vec<f64>>], y: &[f64]) -> Result<LstmRegressor, FitError> {
    let config = LstmConfig {
        epochs: 1,
        ..LstmConfig::default()
    };
    LstmRegressor::fit(x, y, config)
}

fn gnn(x: &[Graph], y: &[f64]) -> Result<GnnRegressor, FitError> {
    let config = GnnConfig {
        epochs: 1,
        ..GnnConfig::default()
    };
    GnnRegressor::fit(x, y, config)
}

fn one_node_graph() -> Graph {
    (vec![vec![1.0, 2.0]], vec![vec![1.0]])
}

#[test]
fn fits_refuse_an_empty_dataset() {
    assert_eq!(tree(&[], &[]).err(), Some(FitError::EmptyDataset));
    assert_eq!(forest(&[], &[]).err(), Some(FitError::EmptyDataset));
    assert_eq!(lstm(&[], &[]).err(), Some(FitError::EmptyDataset));
    assert_eq!(gnn(&[], &[]).err(), Some(FitError::EmptyDataset));
}

#[test]
fn fits_refuse_inputs_and_targets_of_different_lengths() {
    let mismatch = Some(FitError::LengthMismatch {
        inputs: 1,
        targets: 2,
    });
    let y = [1.0, 2.0];
    assert_eq!(tree(&[vec![1.0]], &y).err(), mismatch);
    assert_eq!(forest(&[vec![1.0]], &y).err(), mismatch);
    assert_eq!(lstm(&[vec![vec![1.0]]], &y).err(), mismatch);
    assert_eq!(gnn(&[one_node_graph()], &y).err(), mismatch);
    // Targets with no inputs is a mismatch too, not an empty dataset.
    assert_eq!(
        tree(&[], &[1.0]).err(),
        Some(FitError::LengthMismatch {
            inputs: 0,
            targets: 1
        })
    );
}

#[test]
fn fits_refuse_an_empty_first_sample() {
    let y = [1.0, 2.0];
    let featureless = [vec![], vec![1.0]];
    assert_eq!(
        tree(&featureless, &y).err(),
        Some(FitError::EmptyFirstSample)
    );
    assert_eq!(
        forest(&featureless, &y).err(),
        Some(FitError::EmptyFirstSample)
    );
    // An LSTM sequence with no steps.
    assert_eq!(
        lstm(&[vec![], vec![vec![1.0]]], &y).err(),
        Some(FitError::EmptyFirstSample)
    );
    // A GNN graph with no nodes.
    assert_eq!(
        gnn(&[(vec![], vec![]), one_node_graph()], &y).err(),
        Some(FitError::EmptyFirstSample)
    );
}

#[test]
fn fits_accept_well_formed_data() {
    let y = [1.0, 2.0];
    assert!(tree(&[vec![1.0], vec![2.0]], &y).is_ok());
    assert!(forest(&[vec![1.0], vec![2.0]], &y).is_ok());
    assert!(lstm(&[vec![vec![1.0]], vec![vec![2.0]]], &y).is_ok());
    assert!(gnn(&[one_node_graph(), one_node_graph()], &y).is_ok());
}

#[test]
fn predicts_refuse_a_sample_of_the_wrong_width() {
    let (x, y) = ([vec![1.0, 2.0], vec![3.0, 4.0]], [1.0, 2.0]);
    let (tree, forest) = (tree(&x, &y).unwrap(), forest(&x, &y).unwrap());
    for sample in [&[][..], &[1.0], &[1.0, 2.0, 3.0]] {
        let mismatch = Err(PredictError::WidthMismatch {
            expected: 2,
            got: sample.len(),
        });
        assert_eq!(tree.predict(sample), mismatch);
        assert_eq!(forest.predict(sample), mismatch);
    }
    assert!(tree.predict(&[1.0, 2.0]).is_ok());
    assert!(forest.predict(&[1.0, 2.0]).is_ok());
}

#[test]
fn lstm_and_gcn_predicts_refuse_rows_of_the_wrong_width() {
    let y = [1.0, 2.0];
    let seqs = [vec![vec![1.0, 2.0]], vec![vec![3.0, 4.0], vec![5.0, 6.0]]];
    let lstm = lstm(&seqs, &y).unwrap();
    // Two nodes of `width` features, fully connected with self-loops.
    let graph = |width: usize| (vec![vec![1.0; width]; 2], vec![vec![1.0; 2]; 2]);
    let gnn = gnn(&[graph(2), graph(2)], &y).unwrap();
    for width in [0, 1, 3] {
        let mismatch = Err(PredictError::WidthMismatch {
            expected: 2,
            got: width,
        });
        // A good step first: every step is checked, not just the first.
        assert_eq!(lstm.predict(&[vec![1.0, 2.0], vec![1.0; width]]), mismatch);
        let (nodes, adj) = graph(width);
        assert_eq!(gnn.predict(&nodes, &adj), mismatch);
    }
    // An adjacency matrix that is not nodes × nodes: a row too many, or
    // a row too short.
    let (nodes, _) = graph(2);
    let mismatch = |got| Err(PredictError::WidthMismatch { expected: 2, got });
    assert_eq!(gnn.predict(&nodes, &vec![vec![1.0; 2]; 3]), mismatch(3));
    assert_eq!(
        gnn.predict(&nodes, &vec![vec![1.0; 2], vec![1.0]]),
        mismatch(1)
    );
    assert!(lstm.predict(&seqs[1]).is_ok());
    let (nodes, adj) = graph(2);
    assert!(gnn.predict(&nodes, &adj).is_ok());
}

#[test]
fn fleet_refuses_bad_locality_weights() {
    let wf = chiron::model::apps::finra(12);
    let plan = planners::faastlane_plus(&wf);
    let fleet = |locality| {
        let config = FleetConfig::paper_fleet(2).with_locality(locality);
        FleetSimulation::new(wf.clone(), plan.clone(), config).err()
    };
    assert_eq!(
        fleet(vec![1.0]),
        Some(ServeError::Fleet("one locality weight per cluster"))
    );
    for bad in [0.0, f64::NAN] {
        assert_eq!(
            fleet(vec![1.0, bad]),
            Some(ServeError::Fleet("locality weights must be positive"))
        );
    }
    assert_eq!(fleet(vec![3.0, 1.0]), None);
}
