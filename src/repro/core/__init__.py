"""The paper's primary contribution: the update taxonomy, the columnar
classifier, instability metrics, and result reporting."""
